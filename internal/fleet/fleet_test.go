package fleet_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lateHandler lets the fleet handlers be installed after every node's
// address is known — the member list must exist before any node can be
// built.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) { l.mu.Lock(); l.h = h; l.mu.Unlock() }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	h.ServeHTTP(w, r)
}

// newFleet boots n real fleet nodes on loopback listeners, each with its
// own engine, and returns their base URLs and engines.
func newFleet(t *testing.T, n int) (urls []string, engines []*exp.Engine, handlers []*fleet.Handler) {
	t.Helper()
	return newFleetWith(t, n, nil)
}

// newFleetWith is newFleet with a say in each node's set-up: tune, if not
// nil, may adjust node i's fleet options (Self and Peers are filled in) and
// service options (the engine is set after it) and returns extra options for
// its engine.
func newFleetWith(t *testing.T, n int, tune func(i int, o *fleet.Options, so *service.Options) []exp.Option) (urls []string, engines []*exp.Engine, handlers []*fleet.Handler) {
	t.Helper()
	late := make([]*lateHandler, n)
	urls = make([]string, n)
	for i := range late {
		late[i] = &lateHandler{}
		srv := httptest.NewServer(late[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	engines = make([]*exp.Engine, n)
	handlers = make([]*fleet.Handler, n)
	for i := range late {
		opts := fleet.Options{Self: urls[i], Peers: urls}
		var sopts service.Options
		eopts := []exp.Option{exp.WithWorkers(2)}
		if tune != nil {
			eopts = append(eopts, tune(i, &opts, &sopts)...)
		}
		engines[i] = exp.NewEngine(sim.Default(), eopts...)
		sopts.Engine = engines[i]
		svc := service.New(sopts)
		fh, err := fleet.Wrap(svc.Handler(), opts)
		if err != nil {
			t.Fatal(err)
		}
		late[i].set(fh)
		handlers[i] = fh
	}
	return urls, engines, handlers
}

func fetch(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if method == http.MethodGet {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// splitBenches finds two cheap registered benchmarks homed on different
// nodes of the ring, so sweep tests exercise the split path.
func splitBenches(t *testing.T, h *fleet.Handler) (a, b string) {
	t.Helper()
	ring := h.Ring()
	var first string
	var firstHome string
	for _, bench := range workload.All() {
		home := ring.Owner(bench.Spec.Fingerprint().String())
		if first == "" {
			first, firstHome = bench.FullName(), home
			continue
		}
		if home != firstHome {
			return first, bench.FullName()
		}
	}
	t.Skip("every benchmark homed on one node (astronomically unlikely)")
	return "", ""
}

// TestFleetByteIdenticalToSingleNode is the determinism contract: every
// node of a 3-node fleet answers every routable row, in every format it
// offers, with bytes identical to a standalone single node — routing
// changes where simulations run, never what is computed. Each node is asked
// each request twice, so the second answer of a node that is not the home
// comes from its peer cache. The rows are a cell's stack, its intervals, an
// inline spec's analysis with and without intervals, a recorded trace's
// replay, advise, what-if, sweeps whose cells have both homes, and a sweep
// on one home that repeats a cell.
func TestFleetByteIdenticalToSingleNode(t *testing.T) {
	urls, _, handlers := newFleet(t, 3)
	single := httptest.NewServer(service.New(service.Options{
		Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2)),
	}).Handler())
	t.Cleanup(single.Close)

	benchA, benchB := splitBenches(t, handlers[0])
	sweepBody := fmt.Sprintf(
		`{"cells":[{"bench":%q,"threads":2},{"bench":%q,"threads":2}]}`, benchA, benchB)
	// Homes interleave A, B, A, B, A, and the last cell repeats the first:
	// each home's rows must be dealt back to their declared positions.
	interleaved := fmt.Sprintf(`{"cells":[{"bench":%[1]q,"threads":2},{"bench":%[2]q,"threads":2},`+
		`{"bench":%[1]q,"threads":3},{"bench":%[2]q,"threads":3},{"bench":%[1]q,"threads":2}]}`, benchA, benchB)
	oneHome := fmt.Sprintf(`{"cells":[{"bench":%[1]q,"threads":2},{"bench":%[1]q,"threads":3},{"bench":%[1]q,"threads":2}]}`, benchB)
	b, ok := workload.ByName("blackscholes_parsec_small")
	if !ok {
		t.Fatal("test bench not registered")
	}
	f, _, err := workload.Record(sim.Default(), b.Spec, 2)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	var traceBody bytes.Buffer
	if err := f.Encode(&traceBody); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	type request struct{ method, path, body string }
	var requests []request
	for _, format := range []string{"json", "csv", "svg", "text", "ndjson"} {
		q := "format=" + format
		requests = append(requests,
			request{http.MethodGet, "/v1/stack?bench=" + benchA + "&threads=2&" + q, ""},
			request{http.MethodGet, "/v1/stack?bench=" + benchB + "&threads=2&" + q, ""},
			request{http.MethodGet, "/v1/stack/intervals?bench=" + benchA + "&threads=2&intervals=4&" + q, ""},
			request{http.MethodPost, "/v1/workloads/analyze?" + q, `{"spec":` + specJSON + `,"threads":2}`},
			request{http.MethodPost, "/v1/workloads/analyze?" + q, `{"spec":` + specJSON + `,"threads":2,"intervals":4}`},
			request{http.MethodPost, "/v1/traces/analyze?" + q, traceBody.String()},
			request{http.MethodGet, "/v1/advise?bench=" + benchA + "&max_threads=4&" + q, ""},
			request{http.MethodPost, "/v1/whatif?" + q, `{"spec":` + specJSON + `,"threads":2,"interventions":["double_llc","halve_lock_hold"]}`},
			request{http.MethodPost, "/v1/sweep?" + q, sweepBody},
			request{http.MethodPost, "/v1/sweep?" + q, interleaved},
			request{http.MethodPost, "/v1/sweep?" + q, oneHome},
		)
	}
	for _, req := range requests {
		wantCode, want := fetch(t, req.method, single.URL+req.path, req.body)
		if wantCode != http.StatusOK {
			t.Fatalf("single node %s: %d %s", req.path, wantCode, want)
		}
		for i, u := range urls {
			for ask := range 2 {
				gotCode, got := fetch(t, req.method, u+req.path, req.body)
				if gotCode != wantCode || got != want {
					t.Errorf("node %d %s %s (ask %d): code %d, body diverges from single node\ngot:  %q\nwant: %q",
						i, req.method, req.path, ask+1, gotCode, got, want)
				}
			}
		}
	}
}

// TestFleetEscapedRepeatedQuery: a query with escaped values and a repeated
// parameter, whose first value wins, is read alike by the node that takes it
// (Identify), the node it is forwarded to and a single node: every node
// answers it, and its repeat from the peer cache, with the single node's
// bytes.
func TestFleetEscapedRepeatedQuery(t *testing.T) {
	urls, _, handlers := newFleet(t, 3)
	single := httptest.NewServer(service.New(service.Options{
		Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2)),
	}).Handler())
	t.Cleanup(single.Close)

	bench, _ := splitBenches(t, handlers[0])
	path := "/v1/stack?bench=" + strings.Replace(bench, "_", "%5F", 1) + "&threads=2&threads=4&format=%6Aso%6E"
	wantCode, want := fetch(t, http.MethodGet, single.URL+path, "")
	if wantCode != http.StatusOK || !strings.Contains(want, `"threads": 2,`) {
		t.Fatalf("single node %s: %d %s", path, wantCode, want)
	}
	for i, u := range urls {
		for range 2 {
			if gotCode, got := fetch(t, http.MethodGet, u+path, ""); gotCode != wantCode || got != want {
				t.Errorf("node %d %s: code %d, body diverges from single node\ngot:  %q\nwant: %q", i, path, gotCode, got, want)
			}
		}
	}
}

// TestFleetSweepLimitMatchesSingleNode: the batch bound is the service's
// (service.MaxSweepCells), and splitting cannot carry a batch past it — a
// mixed-home batch one cell over the bound gets, from every node, the
// byte-identical 400 a single node gives, and nothing is simulated.
func TestFleetSweepLimitMatchesSingleNode(t *testing.T) {
	urls, engines, handlers := newFleet(t, 3)
	single := httptest.NewServer(service.New(service.Options{
		Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2)),
	}).Handler())
	t.Cleanup(single.Close)
	benchA, benchB := splitBenches(t, handlers[0])
	cells := make([]string, service.MaxSweepCells+1)
	for i := range cells {
		cells[i] = fmt.Sprintf(`{"bench":%q,"threads":2}`, []string{benchA, benchB}[i%2])
	}
	body := `{"cells":[` + strings.Join(cells, ",") + `]}`
	wantCode, want := fetch(t, http.MethodPost, single.URL+"/v1/sweep", body)
	if wantCode != http.StatusBadRequest {
		t.Fatalf("single node: %d %s", wantCode, want)
	}
	for i, u := range urls {
		if code, got := fetch(t, http.MethodPost, u+"/v1/sweep", body); code != wantCode || got != want {
			t.Errorf("node %d: %d %q, single node answers %d %q", i, code, got, wantCode, want)
		}
	}
	for i, e := range engines {
		if n := e.Stats().CellRuns; n != 0 {
			t.Errorf("node %d simulated %d cells of an over-limit batch", i, n)
		}
	}
}

// TestFleetExactlyOnceColdSweep hammers every node of a cold fleet with
// concurrent identical requests and asserts the whole fleet simulated the
// unique cell exactly once: home-node engine singleflight plus per-node
// peer-fetch singleflight.
func TestFleetExactlyOnceColdSweep(t *testing.T) {
	urls, engines, _ := newFleet(t, 3)
	bench := "blackscholes_parsec_small"
	path := "/v1/stack?bench=" + bench + "&threads=2"

	const perNode = 4
	var wg sync.WaitGroup
	for _, u := range urls {
		for k := 0; k < perNode; k++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				code, body := fetch(t, http.MethodGet, u+path, "")
				if code != http.StatusOK {
					t.Errorf("%s: %d %s", u, code, body)
				}
			}(u)
		}
	}
	wg.Wait()

	total := 0
	for _, e := range engines {
		total += e.Stats().CellRuns
	}
	if total != 1 {
		t.Fatalf("fleet simulated the unique cell %d times under %d concurrent duplicate requests, want exactly 1",
			total, len(urls)*perNode)
	}

	// Warm repeat from a non-home node must be a peer-cache hit, visible on
	// that node's /metrics.
	for _, u := range urls {
		fetch(t, http.MethodGet, u+path, "")
	}
	hits := 0
	for _, u := range urls {
		if n := metric(t, u, "speedupd_fleet_nodes"); n != 3 {
			t.Errorf("%s/metrics counts %d fleet nodes, want 3", u, n)
		}
		hits += metric(t, u, "speedupd_fleet_peer_cache_hits_total")
	}
	if hits == 0 {
		t.Error("no peer-cache hits recorded across the fleet after warm repeats")
	}
}

// TestFleetSweepSplitExactlyOnce repeats the exactly-once property for the
// split sweep path: concurrent identical two-cell batches against every
// node cost the fleet exactly two simulations.
func TestFleetSweepSplitExactlyOnce(t *testing.T) {
	urls, engines, handlers := newFleet(t, 3)
	benchA, benchB := splitBenches(t, handlers[0])
	body := fmt.Sprintf(
		`{"cells":[{"bench":%q,"threads":2},{"bench":%q,"threads":2}]}`, benchA, benchB)

	var wg sync.WaitGroup
	for _, u := range urls {
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				code, resp := fetch(t, http.MethodPost, u+"/v1/sweep?format=ndjson", body)
				if code != http.StatusOK {
					t.Errorf("%s: %d %s", u, code, resp)
					return
				}
				if lines := strings.Count(resp, "\n"); lines != 2 {
					t.Errorf("%s: %d NDJSON lines, want 2", u, lines)
				}
			}(u)
		}
	}
	wg.Wait()

	total := 0
	for _, e := range engines {
		total += e.Stats().CellRuns
	}
	if total != 2 {
		t.Fatalf("fleet simulated %d cells for 2 unique cells under concurrent duplicate sweeps", total)
	}
}

// TestFleetPeerFailureFallsBackLocal points a node at a dead peer and
// asserts requests homed there still answer correctly from a local
// simulation, with the failure counted.
func TestFleetPeerFailureFallsBackLocal(t *testing.T) {
	late := &lateHandler{}
	srv := httptest.NewServer(late)
	t.Cleanup(srv.Close)
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2))
	fh, err := fleet.Wrap(service.New(service.Options{Engine: e}).Handler(),
		fleet.Options{Self: srv.URL, Peers: []string{srv.URL, dead}})
	if err != nil {
		t.Fatal(err)
	}
	late.set(fh)

	// Find a benchmark homed on the dead peer.
	var bench string
	for _, b := range workload.All() {
		if fh.Ring().Owner(b.Spec.Fingerprint().String()) == dead {
			bench = b.FullName()
			break
		}
	}
	if bench == "" {
		t.Skip("no benchmark homed on the dead peer")
	}
	code, body := fetch(t, http.MethodGet, srv.URL+"/v1/stack?bench="+bench+"&threads=2", "")
	if code != http.StatusOK {
		t.Fatalf("fallback failed: %d %s", code, body)
	}
	if e.Stats().CellRuns != 1 {
		t.Errorf("local fallback ran %d cells, want 1", e.Stats().CellRuns)
	}
	if n := metric(t, srv.URL, "speedupd_fleet_peer_errors_total"); n != 1 {
		t.Errorf("%d peer errors counted, want 1", n)
	}
}

// TestWrapRejectsAbsentSelf pins the configuration guard.
func TestWrapRejectsAbsentSelf(t *testing.T) {
	_, err := fleet.Wrap(http.NotFoundHandler(),
		fleet.Options{Self: "a:1", Peers: []string{"b:1", "c:1"}})
	if err == nil {
		t.Fatal("Wrap accepted a self address missing from the member list")
	}
}

// TestFleetTraceHoming pins the trace routing contract: a recorded trace
// uploaded to a node that is not its home forwards exactly one hop to the
// home resolved from the trace's header identity, the fleet simulates the
// replay exactly once no matter how many nodes are asked, and every node
// answers bytes identical to the home's.
func TestFleetTraceHoming(t *testing.T) {
	urls, engines, handlers := newFleet(t, 3)
	b, ok := workload.ByName("blackscholes_parsec_small")
	if !ok {
		t.Fatal("test bench not registered")
	}
	f, _, err := workload.Record(sim.Default(), b.Spec, 2)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	data := buf.String()
	m, err := trace.DecodeMeta(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
	home := handlers[0].Ring().Owner(workload.TraceIdentity(m).String())
	homeIdx, awayIdx := -1, -1
	for i, u := range urls {
		if u == home {
			homeIdx = i
		} else if awayIdx < 0 {
			awayIdx = i
		}
	}
	if homeIdx < 0 || awayIdx < 0 {
		t.Fatalf("home %q not among fleet urls %v", home, urls)
	}

	// Upload to a non-home node: one hop to the home, which simulates.
	code, want := fetch(t, http.MethodPost, urls[awayIdx]+"/v1/traces/analyze", data)
	if code != http.StatusOK {
		t.Fatalf("away upload: %d %s", code, want)
	}
	total := 0
	for i, e := range engines {
		runs := int(e.Stats().CellRuns)
		total += runs
		if i != homeIdx && runs != 0 {
			t.Errorf("node %d simulated %d cells for a trace homed on node %d", i, runs, homeIdx)
		}
	}
	if total != 1 {
		t.Fatalf("fleet-wide cell runs = %d after one trace upload, want exactly 1", total)
	}

	// Asking every node again answers identical bytes and simulates nothing:
	// the home's memo and the peers' response caches absorb the repeats.
	for i, u := range urls {
		code, got := fetch(t, http.MethodPost, u+"/v1/traces/analyze", data)
		if code != http.StatusOK || got != want {
			t.Errorf("node %d: code %d, body diverges from home answer\ngot:  %q\nwant: %q", i, code, got, want)
		}
	}
	total = 0
	for _, e := range engines {
		total += int(e.Stats().CellRuns)
	}
	if total != 1 {
		t.Fatalf("fleet-wide cell runs = %d after repeats on every node, want exactly 1", total)
	}

	// A body with no decodable header is served locally: the asked node
	// answers the service's canonical 400 envelope without touching peers.
	code, body := fetch(t, http.MethodPost, urls[awayIdx]+"/v1/traces/analyze", "not a trace")
	if code != http.StatusBadRequest || !strings.Contains(body, "invalid_argument") {
		t.Errorf("corrupt trace: code %d, body %s", code, body)
	}
}

// TestFleetMetricsExposition parses a fleet node's page: the service's
// families and the fleet's eight, each declared once, in one valid page.
func TestFleetMetricsExposition(t *testing.T) {
	urls, _, handlers := newFleet(t, 2)
	_, away := homeAndAway(t, urls, handlers[0], "blackscholes_parsec_small")
	fetch(t, http.MethodGet, urls[away]+"/v1/stack?bench=blackscholes_parsec_small&threads=2", "")
	_, page := fetch(t, http.MethodGet, urls[away]+"/metrics", "")
	values, types, err := fleet.ParseMetrics(page)
	if err != nil {
		t.Fatalf("fleet /metrics: %v\n%s", err, page)
	}
	for name, want := range map[string]struct {
		typ   string
		value float64
	}{
		"speedupd_fleet_nodes":                      {"gauge", 2},
		"speedupd_fleet_local_total":                {"counter", 0},
		"speedupd_fleet_forwarded_total":            {"counter", 1},
		"speedupd_fleet_received_total":             {"counter", 0},
		"speedupd_fleet_peer_cache_hits_total":      {"counter", 0},
		"speedupd_fleet_peer_errors_total":          {"counter", 0},
		"speedupd_fleet_peer_cache_entries":         {"gauge", 1},
		"speedupd_fleet_peer_cache_evictions_total": {"counter", 0},
		"speedupd_sim_cell_runs_total":              {"counter", 0},
	} {
		if types[name] != want.typ || values[name] != want.value {
			t.Errorf("%s: %s %v, want %s %v", name, types[name], values[name], want.typ, want.value)
		}
	}
}
