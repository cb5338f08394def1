package fleet_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// specJSON is a cheap inline workload no registered benchmark shares a
// fingerprint with.
const specJSON = `{"name":"fleet-kernel","kind":"data_parallel","array_bytes":524288,` +
	`"sweeps_per_phase":1,"phases":1,"instr_per_access":2500,"store_frac":0.1,"seed":41}`

// runs is every simulation e has run.
func runs(e *exp.Engine) int {
	st := e.Stats()
	return st.CellRuns + st.SeqRuns + st.IntervalRuns
}

// TestFleetInlineSpecRouting: a body cell that carries an inline spec is
// homed by the spec's own fingerprint. Asked at a node that is home to
// neither the spec nor the named benchmark, /v1/workloads/analyze,
// /v1/whatif and a /v1/sweep mixing a spec cell with a named cell answer
// bytes identical to a single node's, the asked node simulates nothing, and
// the fleet runs exactly the simulations the single node runs — one cell
// for the analyze. A cell with both bench and spec, or with an invalid spec, has no
// home: the asked node answers the single node's 400 itself.
func TestFleetInlineSpecRouting(t *testing.T) {
	urls, engines, handlers := newFleet(t, 3)
	singleEngine := exp.NewEngine(sim.Default(), exp.WithWorkers(2))
	single := httptest.NewServer(service.New(service.Options{Engine: singleEngine}).Handler())
	t.Cleanup(single.Close)

	spec, err := workload.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	ring := handlers[0].Ring()
	specHome := ring.Owner(spec.Fingerprint().String())
	var bench, benchHome string
	for _, b := range workload.All() {
		if h := ring.Owner(b.Spec.Fingerprint().String()); h != specHome {
			bench, benchHome = b.FullName(), h
			break
		}
	}
	if bench == "" {
		t.Skip("every benchmark homed with the spec (astronomically unlikely)")
	}
	away := -1
	for i, u := range urls {
		if u != specHome && u != benchHome {
			away = i
		}
	}

	fleetRuns := func() (total, asked int) {
		for i, e := range engines {
			total += runs(e)
			if i == away {
				asked = runs(e)
			}
		}
		return total, asked
	}
	for _, req := range []struct{ path, body string }{
		{"/v1/workloads/analyze", `{"spec":` + specJSON + `,"threads":2}`},
		{"/v1/whatif", `{"spec":` + specJSON + `,"threads":2,"interventions":["double_llc"]}`},
		{"/v1/sweep", fmt.Sprintf(`{"cells":[{"spec":%s,"threads":3},{"bench":%q,"threads":2}]}`, specJSON, bench)},
		{"/v1/sweep?format=ndjson", fmt.Sprintf(`{"cells":[{"bench":%q,"threads":3},{"spec":%s,"threads":4}]}`, bench, specJSON)},
	} {
		singleBefore := runs(singleEngine)
		wantCode, want := fetch(t, http.MethodPost, single.URL+req.path, req.body)
		if wantCode != http.StatusOK {
			t.Fatalf("single node %s: %d %s", req.path, wantCode, want)
		}
		wantRuns := runs(singleEngine) - singleBefore
		totalBefore, askedBefore := fleetRuns()
		if code, got := fetch(t, http.MethodPost, urls[away]+req.path, req.body); code != wantCode || got != want {
			t.Errorf("%s at the away node: code %d, body diverges from single node\ngot:  %q\nwant: %q", req.path, code, got, want)
		}
		total, asked := fleetRuns()
		if total-totalBefore != wantRuns || asked != askedBefore {
			t.Errorf("%s: the fleet ran %d simulations (%d at the asked node), a single node %d",
				req.path, total-totalBefore, asked-askedBefore, wantRuns)
		}
		if req.path == "/v1/workloads/analyze" {
			cells := 0
			for _, e := range engines {
				cells += e.Stats().CellRuns
			}
			if cells != 1 {
				t.Errorf("the fleet simulated %d cells for one analyze, want 1", cells)
			}
		}
	}

	badSpec := `{"name":"x","kind":"data_parallel"}`
	for _, req := range []struct{ path, body string }{
		{"/v1/workloads/analyze", `{"bench":"cholesky","spec":` + specJSON + `,"threads":2}`},
		{"/v1/workloads/analyze", `{"spec":` + badSpec + `,"threads":2}`},
		{"/v1/whatif", `{"bench":"cholesky","spec":` + specJSON + `,"threads":2}`},
		{"/v1/whatif", `{"spec":` + badSpec + `,"threads":2}`},
		{"/v1/sweep", fmt.Sprintf(`{"cells":[{"bench":%q,"threads":2},{"bench":"cholesky","spec":%s,"threads":2}]}`, bench, specJSON)},
		{"/v1/sweep?format=ndjson", fmt.Sprintf(`{"cells":[{"spec":%s,"threads":2},{"bench":%q,"threads":2}]}`, badSpec, bench)},
	} {
		wantCode, want := fetch(t, http.MethodPost, single.URL+req.path, req.body)
		if wantCode != http.StatusBadRequest {
			t.Fatalf("single node %s %s: %d %s", req.path, req.body, wantCode, want)
		}
		local := metric(t, urls[away], "speedupd_fleet_local_total")
		forwarded := metric(t, urls[away], "speedupd_fleet_forwarded_total")
		if code, got := fetch(t, http.MethodPost, urls[away]+req.path, req.body); code != wantCode || got != want {
			t.Errorf("%s %s: %d %q, single node answers %d %q", req.path, req.body, code, got, wantCode, want)
		}
		if l, f := metric(t, urls[away], "speedupd_fleet_local_total"), metric(t, urls[away], "speedupd_fleet_forwarded_total"); l != local+1 || f != forwarded {
			t.Errorf("%s %s: local %d → %d, forwarded %d → %d; want one local answer and no forward",
				req.path, req.body, local, l, forwarded, f)
		}
	}
}
