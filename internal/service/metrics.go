package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// One metric table: every family on /metrics is declared once, as a Family
// — name, help text, type, the name of its one label (if any) and its
// samples — and WriteMetrics is the one writer of the text exposition
// format. metrics renders the service's families; a layer in front of the
// service (internal/fleet) appends its own through the same writer.

// The two family types /metrics uses: a counter only grows (its name ends
// in _total), a gauge is a current level.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Family is one metric family: its samples carry values of Label ("" for an
// unlabelled family, whose one sample has an empty LabelValue).
type Family struct {
	Name, Help string
	Type       string // Counter or Gauge
	Label      string
	Samples    []Sample
}

// Sample is one value of a family.
type Sample struct {
	LabelValue string
	Value      uint64
}

// Scalar is an unlabelled family of one value.
func Scalar(name, help, typ string, v uint64) Family {
	return Family{Name: name, Help: help, Type: typ, Samples: []Sample{{Value: v}}}
}

// WriteMetrics writes families in the text exposition format: each
// family's # HELP and # TYPE lines, then its samples, in one Write. Help
// texts and label values are the program's own (route paths, status codes,
// reasons): none holds a character the format would need escaped beyond
// what %q escapes.
func WriteMetrics(w io.Writer, families ...Family) {
	var b []byte
	for _, f := range families {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			b = append(b, f.Name...)
			if f.Label != "" {
				b = fmt.Appendf(b, "{%s=%q}", f.Label, s.LabelValue)
			}
			b = fmt.Appendf(b, " %d\n", s.Value)
		}
	}
	w.Write(b) // a failed write is a scraper that hung up: nobody is left to tell
}

// routeRequests counts the requests to one route-table row.
type routeRequests struct {
	path string
	n    atomic.Uint64
}

// metrics serves GET /metrics: the request path's counters and one
// exp.Stats snapshot, so the families drawn from the engine agree within a
// scrape (exact + fast = cell runs). Every route is listed, at 0 until it
// is requested; a status code is listed once it has been answered.
func metrics(s *Server, w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	requests := make([]Sample, len(s.requests))
	for i := range s.requests {
		requests[i] = Sample{s.requests[i].path, s.requests[i].n.Load()}
	}
	var responses []Sample
	for code := range s.responses {
		if n := s.responses[code].Load(); n > 0 {
			responses = append(responses, Sample{strconv.Itoa(code), n})
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w,
		Family{"speedupd_requests_total", "Requests received, by route.", Counter, "path", requests},
		Family{"speedupd_responses_total", "Responses sent, by status code.", Counter, "code", responses},
		Scalar("speedupd_sim_cell_runs_total", "Cell simulations run, in either mode.", Counter, uint64(st.CellRuns)),
		Scalar("speedupd_sim_cell_runs_exact_total", "Cell simulations run on the exact machine.", Counter, uint64(st.CellRuns-st.FastCellRuns)),
		Scalar("speedupd_sim_cell_runs_fast_total", "Cell simulations run on the sampled fast-mode machine.", Counter, uint64(st.FastCellRuns)),
		Scalar("speedupd_sim_cell_memo_hits_total", "Cell requests answered by the memo or an in-flight run.", Counter, uint64(st.CellHits)),
		Scalar("speedupd_sim_seq_runs_total", "Sequential reference simulations run.", Counter, uint64(st.SeqRuns)),
		Scalar("speedupd_sim_seq_memo_hits_total", "Sequential references answered by the memo.", Counter, uint64(st.SeqHits)),
		Scalar("speedupd_sim_cell_evictions_total", "Cell outcomes dropped by the memo bound.", Counter, uint64(st.CellEvictions)),
		Scalar("speedupd_sim_cell_memo_entries", "Cell outcomes the memo holds now, in-flight claims included.", Gauge, uint64(st.CellMemoEntries)),
		Scalar("speedupd_sim_cell_memo_limit", "The cell memo's bound (0: unbounded).", Gauge, uint64(st.CellMemoLimit)),
		Scalar("speedupd_sim_interval_runs_total", "Time-resolved (interval) simulations run.", Counter, uint64(st.IntervalRuns)),
		Scalar("speedupd_sim_interval_memo_hits_total", "Interval requests answered by the memo.", Counter, uint64(st.IntervalHits)),
		Scalar("speedupd_sim_interval_evictions_total", "Interval series dropped by the memo bound.", Counter, uint64(st.IntervalEvictions)),
		Scalar("speedupd_sim_inflight", "Simulations running now (engine worker slots taken).", Gauge, uint64(st.InFlight)),
		Family{"speedupd_throttled_total", "Requests refused with 429, by reason.", Counter, "reason", []Sample{
			{"overloaded", s.shed.Load()}, {"rate_limited", s.rateLimited.Load()}}},
		Scalar("speedupd_admitted_inflight", "Requests inside the simulating routes now.", Gauge, uint64(s.adm.n.Load())),
		Scalar("speedupd_simulated_ops_total", "Trace operations executed by the engine's simulations.", Counter, st.SimulatedOps),
	)
}
