package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
)

// testBench is cheap to simulate, keeping the handler tests fast.
const testBench = "blackscholes_parsec_small"

// newTestServer wires a server to an engine whose actual simulations are
// counted.
func newTestServer(t *testing.T, opts ...exp.Option) (*Server, *int32) {
	t.Helper()
	var sims int32
	opts = append([]exp.Option{
		exp.WithWorkers(2),
		exp.WithRunHook(func(kind, bench string, threads, cores int) {
			if kind == "cell" {
				atomic.AddInt32(&sims, 1)
			}
		}),
	}, opts...)
	e := exp.NewEngine(sim.Default(), opts...)
	return New(Options{Engine: e}), &sims
}

func get(t *testing.T, h http.Handler, target string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestStackEndpointJSON(t *testing.T) {
	s, _ := newTestServer(t)
	w := get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].Benchmark != testBench || rows[0].Threads != 2 {
		t.Errorf("unexpected rows: %+v", rows)
	}
	if rows[0].Actual <= 0 || rows[0].Estimated <= 0 {
		t.Errorf("speedups not populated: %+v", rows[0])
	}
}

func TestStackFormatNegotiation(t *testing.T) {
	s, _ := newTestServer(t)
	base := "/v1/stack?bench=" + testBench + "&threads=2"

	w := get(t, s.Handler(), base+"&format=svg")
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "<svg") {
		t.Errorf("svg: status %d, body %.40q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content type %q", ct)
	}

	w = get(t, s.Handler(), base, "Accept", "text/csv")
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "label,threads,") {
		t.Errorf("csv via Accept: status %d, body %.40q", w.Code, w.Body.String())
	}

	// The explicit query parameter beats Accept.
	w = get(t, s.Handler(), base+"&format=text", "Accept", "text/csv")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "legend:") {
		t.Errorf("text via query: status %d", w.Code)
	}
}

func TestStackBadParams(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []string{
		"/v1/stack",                    // missing bench + threads
		"/v1/stack?bench=" + testBench, // missing threads
		"/v1/stack?bench=" + testBench + "&threads=zero", // non-numeric
		"/v1/stack?bench=" + testBench + "&threads=0",    // out of range
		"/v1/stack?bench=" + testBench + "&threads=65",   // exceeds cores
		"/v1/stack?bench=" + testBench + "&threads=2&cores=65",
		"/v1/stack?bench=" + testBench + "&threads=2&format=bogus",
	}
	for _, target := range cases {
		if w := get(t, s.Handler(), target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", target, w.Code, w.Body)
		}
	}
	if w := get(t, s.Handler(), "/v1/sweep"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: status %d, want 405", w.Code)
	}
	// A failed request must not have cost a simulation.
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("bad params ran %d simulations", st.CellRuns)
	}
}

// TestStackUnknownBenchmark404 pins the contract for a missing resource: a
// well-formed request naming an unregistered benchmark is 404 (not 400),
// and a near-miss name carries the nearest registered name.
func TestStackUnknownBenchmark404(t *testing.T) {
	s, _ := newTestServer(t)
	w := get(t, s.Handler(), "/v1/stack?bench=nosuch&threads=2")
	if w.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404 (%s)", w.Code, w.Body)
	}
	w = get(t, s.Handler(), "/v1/stack?bench=choleski&threads=2")
	if w.Code != http.StatusNotFound {
		t.Errorf("typo'd name: status %d, want 404", w.Code)
	}
	if body := w.Body.String(); !strings.Contains(body, `did you mean \"cholesky\"?`) {
		t.Errorf("no nearest-name suggestion in %q", body)
	}
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("404s ran %d simulations", st.CellRuns)
	}
}

// TestSingleflightCollapse is the acceptance check: concurrent identical
// requests produce exactly one underlying simulation and identical bodies.
func TestSingleflightCollapse(t *testing.T) {
	s, sims := newTestServer(t)
	const clients = 8
	target := "/v1/stack?bench=" + testBench + "&threads=4"

	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := get(t, s.Handler(), target)
			if w.Code != http.StatusOK {
				t.Errorf("client %d: status %d", i, w.Code)
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	wg.Wait()

	if got := atomic.LoadInt32(sims); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want 1", clients, got)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("client %d body differs from client 0", i)
		}
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	s, sims := newTestServer(t)
	target := "/v1/stack?bench=" + testBench + "&threads=2"
	first := get(t, s.Handler(), target)
	second := get(t, s.Handler(), target)
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("statuses %d, %d", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cached response differs")
	}
	if got := atomic.LoadInt32(sims); got != 1 {
		t.Errorf("repeat request re-simulated (%d runs)", got)
	}
	scrape(t, s.Handler()).want(t, map[string]float64{
		"speedupd_sim_cell_runs_total":              1,
		"speedupd_sim_cell_memo_hits_total":         1,
		`speedupd_requests_total{path="/v1/stack"}`: 2,
	})
}

func TestSweepEndpoint(t *testing.T) {
	s, sims := newTestServer(t)
	// Three declared cells, two identical and one a plain-name alias: the
	// engine must run exactly two simulations, and the alias must come
	// back under its canonical full name (the registry's first match).
	body := fmt.Sprintf(`{"cells":[
		{"bench":%q,"threads":2},
		{"bench":%q,"threads":2},
		{"bench":"swaptions","threads":2}]}`, testBench, testBench)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Benchmark != testBench || rows[1].Benchmark != testBench {
		t.Errorf("unexpected rows: %+v", rows)
	}
	if len(rows) == 3 && rows[2].Benchmark != "swaptions_parsec_medium" {
		t.Errorf("alias not normalized: %q", rows[2].Benchmark)
	}
	if got := atomic.LoadInt32(sims); got != 2 {
		t.Errorf("sweep ran %d simulations, want 2 (dedup)", got)
	}
}

func TestSweepBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	for _, body := range []string{
		``, `not json`, `{"cells":[]}`,
		`{"cells":[{"bench":"blackscholes","threads":0}]}`,
		`{"unknown":1}`,
	} {
		if w := post(body); w.Code != http.StatusBadRequest {
			t.Errorf("body %.30q: status %d, want 400", body, w.Code)
		}
	}
	// An unknown benchmark inside a batch is the same missing resource as
	// on the single-cell path: 404 with the cell index prefixed.
	if w := post(`{"cells":[{"bench":"nosuch","threads":2}]}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown bench in batch: status %d, want 404 (%s)", w.Code, w.Body)
	} else if e := decodeEnvelope(t, w); e.Code != "unknown_benchmark" || !strings.HasPrefix(e.Message, "cell 0:") {
		t.Errorf("unexpected envelope: %+v", e)
	}
	// Batch limit: MaxSweepCells+1 trivial cells, rejected before any runs.
	cell := fmt.Sprintf(`{"bench":%q,"threads":2}`, testBench)
	w := post(`{"cells":[` + strings.Repeat(cell+",", MaxSweepCells) + cell + `]}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "1025 cells exceeds the 1024-cell batch limit") {
		t.Errorf("over-limit batch: status %d, want 400 (%.120s)", w.Code, w.Body)
	}
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("bad sweeps ran %d simulations", st.CellRuns)
	}
}

func TestBenchmarksAndHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	w := get(t, s.Handler(), "/v1/benchmarks")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp map[string][]string
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp["benchmarks"]) < 20 {
		t.Errorf("only %d benchmarks listed", len(resp["benchmarks"]))
	}
	if w := get(t, s.Handler(), "/healthz"); w.Code != 200 || w.Body.String() != "ok\n" {
		t.Errorf("healthz: %d %q", w.Code, w.Body.String())
	}
}

// testSpecJSON is a custom workload the registry has never seen, cheap
// enough for handler tests.
const testSpecJSON = `{"name":"svc-kernel","kind":"data_parallel",
	"array_bytes":524288,"sweeps_per_phase":1,"phases":1,
	"instr_per_access":2500,"store_frac":0.1,"seed":99}`

func post(t *testing.T, h http.Handler, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestAnalyzeEndpoint(t *testing.T) {
	s, sims := newTestServer(t)
	body := `{"spec":` + testSpecJSON + `,"threads":2}`
	w := post(t, s.Handler(), "/v1/workloads/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "svc-kernel" || rows[0].Threads != 2 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[0].Actual <= 0 || rows[0].Estimated <= 0 {
		t.Errorf("stack not populated: %+v", rows[0])
	}

	// The same behavioural spec under another name is a cache hit: the
	// fingerprint, not the name, keys the memo.
	renamed := strings.Replace(body, "svc-kernel", "other-name", 1)
	w = post(t, s.Handler(), "/v1/workloads/analyze", renamed)
	if w.Code != http.StatusOK {
		t.Fatalf("renamed spec: status %d: %s", w.Code, w.Body)
	}
	if got := atomic.LoadInt32(sims); got != 1 {
		t.Errorf("fingerprint-identical specs ran %d simulations, want 1", got)
	}
	if !strings.Contains(w.Body.String(), `"other-name"`) {
		t.Errorf("cached result not relabeled: %s", w.Body)
	}
}

func TestAnalyzeBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	for name, body := range map[string]string{
		"empty":         ``,
		"no spec":       `{"threads":2}`,
		"bench instead": `{"bench":"cholesky","threads":2}`,
		"both":          `{"bench":"cholesky","spec":` + testSpecJSON + `,"threads":2}`,
		"bad spec":      `{"spec":{"name":"x","kind":"data_parallel"},"threads":2}`,
		"bad threads":   `{"spec":` + testSpecJSON + `,"threads":0}`,
		"unknown knob":  `{"spec":{"name":"x","kind":"data_parallel","array_byts":64},"threads":2}`,
		"trailing data": `{"spec":` + testSpecJSON + `,"threads":2}{"threads":8}`,
		"kind omitted":  `{"spec":{"name":"x","array_bytes":524288,"sweeps_per_phase":1,"phases":1},"threads":2}`,
	} {
		if w := post(t, s.Handler(), "/v1/workloads/analyze", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("bad requests ran %d simulations", st.CellRuns)
	}
}

func TestValidateEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	w := post(t, s.Handler(), "/v1/workloads/validate", testSpecJSON)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Valid       bool            `json:"valid"`
		Error       string          `json:"error"`
		Fingerprint string          `json:"fingerprint"`
		Name        string          `json:"name"`
		Canonical   json.RawMessage `json:"canonical"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Valid || resp.Name != "svc-kernel" || len(resp.Fingerprint) != 64 || len(resp.Canonical) == 0 {
		t.Errorf("unexpected response: %+v", resp)
	}

	// An invalid spec is a clean valid=false with the actionable error.
	w = post(t, s.Handler(), "/v1/workloads/validate", `{"name":"x","kind":"data_parallel"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("invalid spec: status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Valid || !strings.Contains(resp.Error, "array_bytes") {
		t.Errorf("unexpected response: %+v", resp)
	}
	// Validation never simulates.
	if st := s.Engine().Stats(); st.CellRuns != 0 || st.SeqRuns != 0 {
		t.Errorf("validate ran simulations: %+v", st)
	}
}

func TestSweepInlineSpecCells(t *testing.T) {
	s, sims := newTestServer(t)
	// A named registry cell plus an inline spec: both simulate, labels stay
	// per-cell, and repeating the batch is a pure cache hit.
	body := `{"cells":[
		{"bench":"` + testBench + `","threads":2},
		{"spec":` + testSpecJSON + `,"threads":2}]}`
	w := post(t, s.Handler(), "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Benchmark != testBench || rows[1].Benchmark != "svc-kernel" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if got := atomic.LoadInt32(sims); got != 2 {
		t.Errorf("mixed batch ran %d simulations, want 2", got)
	}
	if w := post(t, s.Handler(), "/v1/sweep", body); w.Code != http.StatusOK {
		t.Fatalf("repeat batch: status %d", w.Code)
	}
	if got := atomic.LoadInt32(sims); got != 2 {
		t.Errorf("repeat batch re-simulated (%d runs)", got)
	}

	// A cell carrying both identities is rejected.
	both := `{"cells":[{"bench":"` + testBench + `","spec":` + testSpecJSON + `,"threads":2}]}`
	if w := post(t, s.Handler(), "/v1/sweep", both); w.Code != http.StatusBadRequest {
		t.Errorf("bench+spec cell: status %d, want 400", w.Code)
	}
}

// TestSimTimeoutDetaches pins the detach contract on every simulating
// endpoint, the streamed sweep included. A 1ns budget cannot wait for any
// simulation: the request must answer 504 sim_timeout rather than hang — but
// the detached engine call still runs to completion on its own and fills
// the memo, so a patient retry answers what a server that never timed out
// answers, without a single new simulation.
func TestSimTimeoutDetaches(t *testing.T) {
	cellBody := `{"bench":"` + testBench + `","threads":2}`
	sweepBody := `{"cells":[` + cellBody + `,{"bench":"` + testBench + `","threads":1}]}`
	for _, tc := range []struct {
		name, method, target, body string
	}{
		{"stack", http.MethodGet, "/v1/stack?bench=" + testBench + "&threads=2", ""},
		{"intervals", http.MethodGet, "/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=4", ""},
		{"sweep", http.MethodPost, "/v1/sweep", sweepBody},
		{"sweep streamed", http.MethodPost, "/v1/sweep?format=ndjson", sweepBody},
		{"analyze", http.MethodPost, "/v1/workloads/analyze", `{"spec":` + testSpecJSON + `,"threads":2}`},
		{"trace", http.MethodPost, "/v1/traces/analyze", string(recordTestTrace(t, 2))},
		{"advise", http.MethodGet, "/v1/advise?bench=" + testBench + "&max_threads=4", ""},
		{"whatif", http.MethodPost, "/v1/whatif", cellBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			do := func(e *exp.Engine, timeout time.Duration) *httptest.ResponseRecorder {
				req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
				w := httptest.NewRecorder()
				New(Options{Engine: e, SimTimeout: timeout}).Handler().ServeHTTP(w, req)
				return w
			}
			runs := func(e *exp.Engine) [3]int {
				st := e.Stats()
				return [3]int{st.SeqRuns, st.CellRuns, st.IntervalRuns}
			}
			ref := exp.NewEngine(sim.Default(), exp.WithWorkers(1))
			want := do(ref, time.Minute)
			if want.Code != http.StatusOK {
				t.Fatalf("patient server: status %d (%s)", want.Code, want.Body)
			}

			// The first simulation (on the engine's one worker, so every
			// other waits behind it) is held until the 504 has been seen: a
			// cheap cell must not finish before the handler waits for it.
			release := make(chan struct{})
			var once sync.Once
			e := exp.NewEngine(sim.Default(), exp.WithWorkers(1),
				exp.WithRunHook(func(kind, bench string, threads, cores int) {
					once.Do(func() { <-release })
				}))
			w := do(e, time.Nanosecond)
			close(release)
			if w.Code != http.StatusGatewayTimeout || !strings.Contains(w.Body.String(), codeSimTimeout) {
				t.Fatalf("status %d, want 504 %s (%s)", w.Code, codeSimTimeout, w.Body)
			}
			deadline := time.Now().Add(30 * time.Second)
			for runs(e) != runs(ref) || e.Stats().InFlight > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("detached work never completed: ran %v, the request costs %v", runs(e), runs(ref))
				}
				time.Sleep(10 * time.Millisecond)
			}
			if w := do(e, time.Minute); w.Code != http.StatusOK || w.Body.String() != want.Body.String() {
				t.Errorf("retry after detach: status %d, body %q, want 200 %q", w.Code, w.Body, want.Body)
			}
			if runs(e) != runs(ref) {
				t.Errorf("retry re-simulated: ran %v, the request costs %v", runs(e), runs(ref))
			}
		})
	}
}

// TestSimContextDeadline pins what Options.SimTimeout means for the context
// a request's simulations are awaited under: a negative timeout builds no
// deadline, 0 is the 2-minute default, and a positive one is itself. Every
// context ends with its cancel.
func TestSimContextDeadline(t *testing.T) {
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(1))
	r := httptest.NewRequest(http.MethodGet, "/v1/stack", nil)
	for _, tc := range []struct {
		timeout, want time.Duration // want 0: no deadline
	}{
		{-time.Second, 0},
		{0, 2 * time.Minute},
		{time.Second, time.Second},
	} {
		before := time.Now()
		ctx, cancel := New(Options{Engine: e, SimTimeout: tc.timeout}).simContext(r)
		after := time.Now()
		deadline, ok := ctx.Deadline()
		switch {
		case tc.want == 0 && ok:
			t.Errorf("SimTimeout %v: deadline %v, want none", tc.timeout, deadline)
		case tc.want != 0 && (!ok || deadline.Before(before.Add(tc.want)) || deadline.After(after.Add(tc.want))):
			t.Errorf("SimTimeout %v: deadline %v (set: %v), want %v from the call", tc.timeout, deadline.Sub(before), ok, tc.want)
		}
		cancel()
		if ctx.Err() != context.Canceled {
			t.Errorf("SimTimeout %v: after cancel the context reports %v", tc.timeout, ctx.Err())
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, l, s.Handler(), 5*time.Second) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz over the wire: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

func TestStackIntervalsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	w := get(t, s.Handler(), "/v1/stack/intervals?bench="+testBench+"&threads=2&intervals=6")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var rep stack.TimeSeriesReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decoding body: %v\n%s", err, w.Body)
	}
	if rep.Benchmark != testBench || rep.Threads != 2 {
		t.Fatalf("report identifies %q x%d", rep.Benchmark, rep.Threads)
	}
	if n := len(rep.Intervals); n < 1 || n > 7 {
		t.Fatalf("%d intervals for a target of 6", n)
	}
	sum := rep.Intervals[0].Components
	for _, iv := range rep.Intervals[1:] {
		sum = sum.Add(iv.Components)
	}
	if sum != rep.AggregateCycles {
		t.Fatalf("served intervals do not sum to the aggregate: %+v vs %+v", sum, rep.AggregateCycles)
	}

	// The SVG format draws the stacked timeline.
	w = get(t, s.Handler(), "/v1/stack/intervals?bench="+testBench+"&threads=2&intervals=6&format=svg")
	if w.Code != http.StatusOK {
		t.Fatalf("svg status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content type %q", ct)
	}
	if !strings.Contains(w.Body.String(), "Speedup-stack timeline") {
		t.Error("svg body is not a timeline chart")
	}
}

func TestStackIntervalsCaching(t *testing.T) {
	s, _ := newTestServer(t)
	target := "/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=4"
	first := get(t, s.Handler(), target)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	second := get(t, s.Handler(), target)
	if second.Body.String() != first.Body.String() {
		t.Fatal("repeated interval request served different bytes")
	}
	st := s.Engine().Stats()
	if st.IntervalRuns != 1 || st.IntervalHits != 1 {
		t.Fatalf("interval memo: %d runs / %d hits, want 1/1", st.IntervalRuns, st.IntervalHits)
	}
}

func TestStackIntervalsBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	for _, target := range []string{
		"/v1/stack/intervals?bench=" + testBench,                               // missing threads
		"/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=0",    // explicit zero
		"/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=9999", // over the cap
		"/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=x",    // not a number
		"/v1/stack/intervals?bench=" + testBench + "&threads=2&format=nope",    // unknown format
	} {
		if w := get(t, s.Handler(), target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, w.Code)
		}
	}
	if w := get(t, s.Handler(), "/v1/stack/intervals?bench=nosuch&threads=2"); w.Code != http.StatusNotFound {
		t.Errorf("unknown benchmark: status %d, want 404", w.Code)
	}
}

func TestAnalyzeIntervals(t *testing.T) {
	s, _ := newTestServer(t)
	spec := `{"name":"iv-kernel","kind":"data_parallel","array_bytes":524288,` +
		`"sweeps_per_phase":1,"phases":2,"instr_per_access":2500,"store_frac":0.1,"seed":11}`
	req := httptest.NewRequest(http.MethodPost, "/v1/workloads/analyze",
		strings.NewReader(`{"threads":2,"intervals":5,"spec":`+spec+`}`))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rep stack.TimeSeriesReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decoding body: %v\n%s", err, w.Body)
	}
	if rep.Benchmark != "iv-kernel" {
		t.Fatalf("report identifies %q", rep.Benchmark)
	}
	if n := len(rep.Intervals); n < 1 || n > 6 {
		t.Fatalf("%d intervals for a target of 5", n)
	}

	// Sweeps stay aggregate-only: an intervals field in a cell is a 400.
	req = httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"cells":[{"bench":"`+testBench+`","threads":2,"intervals":4}]}`))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("sweep with intervals: status %d, want 400", w.Code)
	}
}
