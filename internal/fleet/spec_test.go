package fleet_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/fleet"
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
// home: the asked node answers the single node's 400 itself. So does a
// sweep with a field the service does not know, at the top or in a cell,
// whether its cells have one remote home or several.
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
		{"/v1/sweep", fmt.Sprintf(`{"cells":[{"spec":%s,"threads":2},{"bench":%q,"threads":2}],"bogus":1}`, specJSON, bench)},
		{"/v1/sweep?format=ndjson", fmt.Sprintf(`{"cells":[{"bench":%q,"threads":2},{"spec":%s,"threads":2,"colour":"red"}]}`, bench, specJSON)},
		{"/v1/sweep", fmt.Sprintf(`{"bogus":1,"cells":[{"bench":%q,"threads":2}]}`, bench)},
		{"/v1/sweep?format=ndjson", fmt.Sprintf(`{"cells":[{"bench":%q,"colour":"red","threads":2}]}`, bench)},
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

// heldTransport is a peer transport whose first forward waits for release;
// every forward is announced on started as it begins.
type heldTransport struct {
	started chan struct{}
	release chan struct{}
	first   atomic.Bool
}

func (h *heldTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h.started <- struct{}{}
	if !h.first.Swap(true) {
		<-h.release
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestFleetReportErrorInEachFormat: the home's refusal of a report request
// is the client's own answer, written in the client's format, and is never
// kept. A request in another format that joins the fetch of a refused one
// does not take that format's error: it gets its own, as a single node
// writes it, by asking the home again.
func TestFleetReportErrorInEachFormat(t *testing.T) {
	held := &heldTransport{started: make(chan struct{}, 8), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(held.release) }) }
	urls, _, handlers := newFleetWith(t, 2, func(i int, o *fleet.Options, _ *service.Options) []exp.Option {
		o.Client = &http.Client{Transport: held}
		return nil
	})
	t.Cleanup(release)
	single := httptest.NewServer(service.New(service.Options{Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2))}).Handler())
	t.Cleanup(single.Close)
	spec, err := workload.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	away := 0
	if handlers[0].Ring().Owner(spec.Fingerprint().String()) == urls[0] {
		away = 1
	}
	body := `{"spec":` + specJSON + `,"threads":0}`
	type reply struct {
		code int
		body string
	}
	ask := func(query string, sent func()) reply {
		trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { sent() }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodPost, urls[away]+"/v1/workloads/analyze"+query, strings.NewReader(body))
		if err != nil {
			return reply{0, err.Error()}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return reply{0, err.Error()}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return reply{0, err.Error()}
		}
		return reply{resp.StatusCode, string(data)}
	}
	claimant, waiter := make(chan reply, 1), make(chan reply, 1)
	go func() { claimant <- ask("", func() {}) }()
	<-held.started // the json request's fetch is held on its way to the home
	sent := make(chan struct{})
	go func() { waiter <- ask("?format=text", func() { close(sent) }) }()
	<-sent
	release()
	for _, c := range []struct {
		query string
		got   reply
	}{{"", <-claimant}, {"?format=text", <-waiter}} {
		wantCode, want := fetch(t, http.MethodPost, single.URL+"/v1/workloads/analyze"+c.query, body)
		if wantCode != http.StatusBadRequest || c.got.code != wantCode || c.got.body != want {
			t.Errorf("%q: %d %q, a single node answers %d %q", c.query, c.got.code, c.got.body, wantCode, want)
		}
	}
	if fwd, hits, n := metric(t, urls[away], "speedupd_fleet_forwarded_total"),
		metric(t, urls[away], "speedupd_fleet_peer_cache_hits_total"),
		metric(t, urls[away], "speedupd_fleet_peer_cache_entries"); fwd != 2 || hits != 0 || n != 0 {
		t.Errorf("%d forwards, %d hits, %d entries; want each format's error fetched once and none kept", fwd, hits, n)
	}
}
