package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
)

// TestStackModeFast pins the ?mode=fast contract on /v1/stack: the request
// succeeds, runs a sampled simulation (visible in the engine's fast-run
// counter), never shares a cache entry with the exact result, and is itself
// memoized like any other cell.
func TestStackModeFast(t *testing.T) {
	s, sims := newTestServer(t)
	base := "/v1/stack?bench=" + testBench + "&threads=2"

	w := get(t, s.Handler(), base+"&mode=fast")
	if w.Code != http.StatusOK {
		t.Fatalf("fast: status %d: %s", w.Code, w.Body)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].Actual <= 0 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if st := s.Engine().Stats(); st.CellRuns != 1 || st.FastCellRuns != 1 {
		t.Fatalf("fast run not counted: %+v", st)
	}

	// The exact result must be simulated separately — fast and exact never
	// share a memo entry.
	if w := get(t, s.Handler(), base); w.Code != http.StatusOK {
		t.Fatalf("exact: status %d: %s", w.Code, w.Body)
	}
	if *sims != 2 {
		t.Fatalf("exact request after fast ran %d simulations, want 2", *sims)
	}
	// An explicit mode=exact is the same cell as the default.
	if w := get(t, s.Handler(), base+"&mode=exact"); w.Code != http.StatusOK {
		t.Fatalf("mode=exact: status %d: %s", w.Code, w.Body)
	}
	// Repeating the fast request is a memo hit, not a third simulation.
	if w := get(t, s.Handler(), base+"&mode=fast"); w.Code != http.StatusOK {
		t.Fatalf("fast repeat: status %d: %s", w.Code, w.Body)
	}
	if *sims != 2 {
		t.Fatalf("repeats re-simulated: %d runs, want 2", *sims)
	}
}

// TestModeBogus pins the failure shape: an unknown mode is a 400 with the
// uniform invalid_argument envelope on every mode-accepting endpoint.
func TestModeBogus(t *testing.T) {
	s, _ := newTestServer(t)
	targets := []string{
		"/v1/stack?bench=" + testBench + "&threads=2&mode=bogus",
		"/v1/stack/intervals?bench=" + testBench + "&threads=2&mode=bogus",
		"/v1/advise?bench=" + testBench + "&mode=bogus",
	}
	for _, target := range targets {
		w := get(t, s.Handler(), target)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", target, w.Code, w.Body)
			continue
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: bad envelope: %v", target, err)
			continue
		}
		if env.Error.Code != "invalid_argument" || !strings.Contains(env.Error.Message, "bogus") {
			t.Errorf("%s: envelope %+v", target, env.Error)
		}
	}
	// POST endpoints share the same parser; one representative each.
	for _, target := range []string{"/v1/sweep?mode=bogus", "/v1/workloads/analyze?mode=bogus"} {
		w := post(t, s.Handler(), target, `{}`)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "invalid_argument") {
			t.Errorf("%s: status %d, body %s", target, w.Code, w.Body)
		}
	}
	// Endpoints without the mode option reject it as unknown.
	if w := get(t, s.Handler(), "/v1/benchmarks?mode=fast"); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "unknown_parameter") {
		t.Errorf("/v1/benchmarks?mode=fast: status %d, body %s", w.Code, w.Body)
	}
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("bad modes ran %d simulations", st.CellRuns)
	}
}

// TestModeMetricsSplit pins the /metrics fidelity split: fast and exact
// cell runs are counted separately and sum to the total.
func TestModeMetricsSplit(t *testing.T) {
	s, _ := newTestServer(t)
	base := "/v1/stack?bench=" + testBench + "&threads=2"
	for _, target := range []string{base, base + "&mode=fast"} {
		if w := get(t, s.Handler(), target); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, w.Code, w.Body)
		}
	}
	scrape(t, s.Handler()).want(t, map[string]float64{
		"speedupd_sim_cell_runs_total":       2,
		"speedupd_sim_cell_runs_exact_total": 1,
		"speedupd_sim_cell_runs_fast_total":  1,
	})
}

// TestSweepAndAnalyzeModeFast drives ?mode=fast through the POST surface:
// a sweep batch where every cell runs sampled, and an inline-spec analyze.
func TestSweepAndAnalyzeModeFast(t *testing.T) {
	s, _ := newTestServer(t)
	body := `{"cells":[{"bench":"` + testBench + `","threads":2},{"bench":"` + testBench + `","threads":4}]}`
	w := post(t, s.Handler(), "/v1/sweep?mode=fast", body)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", w.Code, w.Body)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil || len(rows) != 2 {
		t.Fatalf("sweep rows: %v, %+v", err, rows)
	}
	if st := s.Engine().Stats(); st.FastCellRuns != st.CellRuns {
		t.Fatalf("sweep cells not all fast: %+v", st)
	}

	spec := `{"spec":{"name":"svc-fast","kind":"data_parallel","array_bytes":524288,
		"sweeps_per_phase":1,"phases":1,"instr_per_access":2500,"store_frac":0.1,"seed":5},"threads":2}`
	w = post(t, s.Handler(), "/v1/workloads/analyze?mode=fast", spec)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", w.Code, w.Body)
	}
	if st := s.Engine().Stats(); st.FastCellRuns != st.CellRuns {
		t.Fatalf("analyze cell not fast: %+v", st)
	}
}

// TestModeOnEveryProtectedRow ranges over the route table: every simulating
// row takes ?mode=exact and ?mode=fast, and only the engine decides which
// analyses the sampled machine may serve. Advise and what-if answer fast
// mode with the engine's own refusal, 400 invalid_argument, simulating
// nothing; every other row answers 200 and counts a fast cell run.
func TestModeOnEveryProtectedRow(t *testing.T) {
	ctx := context.Background()
	requests := matrixRequests(t)
	fast := sim.Default().WithMode(sim.ModeFast)
	// The engine call each refusing row makes, on the fast machine.
	refusals := map[string]func(*exp.Engine) error{
		"/v1/advise": func(e *exp.Engine) error {
			_, err := e.Advise(ctx, exp.Request{Cell: exp.Cell{Bench: testBench}, Config: &fast}, 4)
			return err
		},
		"/v1/whatif": func(e *exp.Engine) error {
			_, err := e.WhatIf(ctx, exp.Request{Cell: exp.Cell{Bench: "cholesky", Threads: 2}, Config: &fast}, nil)
			return err
		},
	}
	for _, rt := range routes {
		if !rt.protected {
			continue
		}
		s, _ := newTestServer(t)
		mr := requests[rt.path]
		send := func(mode string) *httptest.ResponseRecorder {
			target := rt.path + "?" + strings.TrimPrefix(mr.query+"&mode="+mode, "&")
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(rt.method, target, strings.NewReader(mr.body)))
			return w
		}
		if w := send("exact"); w.Code != http.StatusOK {
			t.Errorf("%s mode=exact: status %d: %.200s", rt.path, w.Code, w.Body)
			continue
		}
		before := s.Engine().Stats()
		w := send("fast")
		after := s.Engine().Stats()
		refusal, refused := refusals[rt.path]
		if !refused {
			if w.Code != http.StatusOK || after.FastCellRuns <= before.FastCellRuns {
				t.Errorf("%s mode=fast: status %d, fast cell runs %d -> %d: %.200s",
					rt.path, w.Code, before.FastCellRuns, after.FastCellRuns, w.Body)
			}
			continue
		}
		err := refusal(s.Engine())
		var re *exp.RequestError
		if !errors.As(err, &re) {
			t.Fatalf("%s: the engine's fast refusal is %T (%v), want *exp.RequestError", rt.path, err, err)
		}
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s mode=fast: status %d, want 400: %.200s", rt.path, w.Code, w.Body)
			continue
		}
		if e := decodeEnvelope(t, w); e.Code != "invalid_argument" || e.Message != err.Error() {
			t.Errorf("%s mode=fast: envelope %+v, want invalid_argument %q", rt.path, e, err)
		}
		if st := s.Engine().Stats(); after != before || st != before {
			t.Errorf("%s mode=fast moved the engine's stats:\n%+v\n%+v\n%+v", rt.path, before, after, st)
		}
	}
}
