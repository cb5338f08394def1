package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// cellRunsFromMetrics scrapes speedupd_sim_cell_runs_total from /metrics —
// the same observation path the smoke driver and operators use.
func cellRunsFromMetrics(t *testing.T, s *Server) int {
	t.Helper()
	return int(scrape(t, s.Handler()).value(t, "speedupd_sim_cell_runs_total"))
}

// TestWhatIfEndpointJSON is the endpoint's happy path plus the issue's memo
// acceptance: a repeated POST /v1/whatif performs zero additional
// simulations, asserted through /metrics.
func TestWhatIfEndpointJSON(t *testing.T) {
	s, _ := newTestServer(t)
	body := `{"bench":"cholesky","threads":4}`
	w := post(t, s.Handler(), "/v1/whatif", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var rep whatif.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.Benchmark != "cholesky_splash2" || rep.Threads != 4 {
		t.Errorf("report header: %+v", rep)
	}
	if rep.BaselineSpeedup <= 0 || len(rep.Predictions) == 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	for i, p := range rep.Predictions {
		if p.Intervention == "" || p.Mutation == "" || p.ActualSpeedup <= 0 {
			t.Errorf("prediction %d incomplete: %+v", i, p)
		}
		if i > 0 && p.PredictedGain > rep.Predictions[i-1].PredictedGain {
			t.Error("predictions not ranked by predicted gain")
		}
	}

	runs := cellRunsFromMetrics(t, s)
	if runs == 0 {
		t.Fatal("metrics report zero cell runs after a what-if")
	}
	w = post(t, s.Handler(), "/v1/whatif", body)
	if w.Code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", w.Code, w.Body)
	}
	if again := cellRunsFromMetrics(t, s); again != runs {
		t.Errorf("repeated what-if ran %d extra simulations, want 0", again-runs)
	}
	// A restricted subset of an already-evaluated catalog is also free.
	w = post(t, s.Handler(), "/v1/whatif", `{"bench":"cholesky","threads":4,"interventions":["double_llc"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("subset status %d: %s", w.Code, w.Body)
	}
	if again := cellRunsFromMetrics(t, s); again != runs {
		t.Errorf("subset what-if ran %d extra simulations, want 0", again-runs)
	}
}

// TestWhatIfSpecAndFormats drives the inline-spec path and the format
// negotiation (text, csv, svg).
func TestWhatIfSpecAndFormats(t *testing.T) {
	s, _ := newTestServer(t)
	body := `{"spec":` + testSpecJSON + `,"threads":2}`
	w := post(t, s.Handler(), "/v1/whatif?format=text", body)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "what-if analysis: svc-kernel x2") {
		t.Errorf("text: status %d, body %.80q", w.Code, w.Body.String())
	}
	w = post(t, s.Handler(), "/v1/whatif?format=csv", body)
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "benchmark,threads,baseline_speedup,") {
		t.Errorf("csv: status %d, body %.80q", w.Code, w.Body.String())
	}
	w = post(t, s.Handler(), "/v1/whatif?format=svg", body)
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "<svg") {
		t.Errorf("svg: status %d, body %.40q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content type %q", ct)
	}
}

// TestWhatIfErrorEnvelopes pins the envelope shape and stable code of every
// new failure path the endpoint introduces, and that none of them costs a
// simulation.
func TestWhatIfErrorEnvelopes(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	cases := []struct {
		name     string
		target   string
		body     string
		status   int
		code     string
		contains string
	}{
		{"bad body", "/v1/whatif", `not json`,
			http.StatusBadRequest, "invalid_argument", "bad body"},
		{"unknown body field", "/v1/whatif", `{"bench":"cholesky","threads":4,"scale":2}`,
			http.StatusBadRequest, "invalid_argument", "scale"},
		{"trailing data", "/v1/whatif", `{"bench":"cholesky","threads":4}{}`,
			http.StatusBadRequest, "invalid_argument", "trailing data"},
		{"threads floor", "/v1/whatif", `{"bench":"cholesky","threads":1}`,
			http.StatusBadRequest, "invalid_argument", "no scaling gap"},
		{"missing threads", "/v1/whatif", `{"bench":"cholesky"}`,
			http.StatusBadRequest, "invalid_argument", "threads"},
		{"bench and spec", "/v1/whatif", `{"bench":"cholesky","spec":` + testSpecJSON + `,"threads":4}`,
			http.StatusBadRequest, "invalid_argument", "bench or spec"},
		{"unknown bench", "/v1/whatif", `{"bench":"nosuch","threads":4}`,
			http.StatusNotFound, "unknown_benchmark", "nosuch"},
		{"unknown intervention", "/v1/whatif", `{"bench":"cholesky","threads":4,"interventions":["triple_llc"]}`,
			http.StatusNotFound, "unknown_intervention", "triple_llc"},
		{"unknown param", "/v1/whatif?formats=json", `{"bench":"cholesky","threads":4}`,
			http.StatusBadRequest, "unknown_parameter", "format"},
	}
	for _, c := range cases {
		w := post(t, h, c.target, c.body)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
			continue
		}
		e := decodeEnvelope(t, w)
		if e.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, e.Code, c.code)
		}
		if !strings.Contains(e.Message, c.contains) {
			t.Errorf("%s: message %q does not mention %q", c.name, e.Message, c.contains)
		}
	}

	// GET is rejected with the uniform 405 envelope.
	if w := get(t, h, "/v1/whatif"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", w.Code)
	} else if e := decodeEnvelope(t, w); e.Code != "method_not_allowed" {
		t.Errorf("GET code %q", e.Code)
	}

	// The intervention typo carries a machine-readable nearest-ID suggestion.
	w := post(t, h, "/v1/whatif", `{"bench":"cholesky","threads":4,"interventions":["double_lcc"]}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("typo'd intervention: status %d (%s)", w.Code, w.Body)
	}
	if e := decodeEnvelope(t, w); e.Suggestion != whatif.DoubleLLC {
		t.Errorf("suggestion %q, want %q", e.Suggestion, whatif.DoubleLLC)
	}

	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("error paths ran %d simulations", st.CellRuns)
	}
}

// FuzzWhatIfJSON fuzzes the full pre-simulation pipeline on raw bytes: the
// strict decode, the request validation, and — when a valid cell emerges —
// every applicable catalog mutation. Properties: no panics anywhere,
// unknown fields and trailing data are rejected, and every spec mutation of
// a valid workload is itself valid and survives a JSON round trip with its
// fingerprint intact (mutated cells must stay simulable and memoizable).
func FuzzWhatIfJSON(f *testing.F) {
	f.Add([]byte(`{"bench":"cholesky","threads":4}`))
	f.Add([]byte(`{"bench":"cholesky","threads":4,"interventions":["double_llc","halve_lock_hold"]}`))
	f.Add([]byte(`{"spec":` + testSpecJSON + `,"threads":2}`))
	f.Add([]byte(`{"spec":{"name":"tq","kind":"task_queue","tasks":64,"task_instr":4000,
		"dispatch_instr":200,"array_bytes":262144,"seed":3},"threads":4,"cores":8}`))
	f.Add([]byte(`{"bench":"cholesky","threads":4,"unknown_field":1}`))
	f.Add([]byte(`{"bench":"cholesky","threads":4}{}`))
	f.Add([]byte(`{"threads":-1}`))

	cfg := sim.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req whatifRequest
		if err := decodeStrict(strings.NewReader(string(data)), &req); err != nil {
			return // malformed JSON must fail cleanly, never panic
		}
		// Unknown fields are rejected by the decoder: re-encoding the decoded
		// struct and decoding again must therefore succeed.
		round, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		var again whatifRequest
		if err := decodeStrict(strings.NewReader(string(round)), &again); err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, round)
		}

		cell, err := buildCell(req.wireCell)
		if err != nil {
			return // invalid requests fail with a typed error, never panic
		}
		// The engine resolves the intervention IDs; an unknown one fails
		// with the typed lookup error, never a panic.
		for _, id := range req.Interventions {
			if _, err := whatif.ByID(id); err != nil {
				return
			}
		}
		// A valid cell: resolve its spec and apply the entire catalog.
		spec := workloadSpecOf(t, cell.Bench, cell.Spec)
		for _, iv := range whatif.Catalog() {
			m, ok := iv.Mutate(spec, cfg)
			if !ok {
				continue
			}
			if m.Spec == nil {
				if m.Config == nil {
					t.Fatalf("%s: mutation carries neither spec nor config", iv.ID)
				}
				if err := m.Config.Validate(); err != nil {
					t.Fatalf("%s: mutated config invalid: %v", iv.ID, err)
				}
				continue
			}
			if err := m.Spec.Validate(); err != nil {
				t.Fatalf("%s: mutated spec invalid: %v\nbase: %+v", iv.ID, err, spec)
			}
			blob, err := json.Marshal(m.Spec)
			if err != nil {
				t.Fatalf("%s: mutated spec does not marshal: %v", iv.ID, err)
			}
			parsed, err := workload.ParseSpec(blob)
			if err != nil {
				t.Fatalf("%s: mutated spec does not round-trip: %v\n%s", iv.ID, err, blob)
			}
			if parsed.Fingerprint() != m.Spec.Canonical().Fingerprint() {
				t.Fatalf("%s: fingerprint changed across JSON round trip", iv.ID)
			}
		}
	})
}

// workloadSpecOf resolves the canonical spec behind a parsed cell.
func workloadSpecOf(t *testing.T, bench string, spec *workload.Spec) workload.Spec {
	t.Helper()
	if spec != nil {
		return spec.Canonical()
	}
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("buildCell accepted unknown benchmark %q", bench)
	}
	return b.Spec
}
