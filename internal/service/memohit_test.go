package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

// TestMemoHitIgnoresSimTimeout pins the other half of the detach contract:
// an answer the memo already holds never waits, so it cannot time out. For
// every simulating row, and for each single-call row in CSV too, a patient
// request warms the engine; then a request on the same engine under a 1ns
// budget must answer 200 with the same bytes and run no simulation.
func TestMemoHitIgnoresSimTimeout(t *testing.T) {
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
		// The single-call rows again in CSV, the format appended in place:
		// a hit builds no deadline, whatever the encoder.
		{"stack csv", http.MethodGet, "/v1/stack?bench=" + testBench + "&threads=2&format=csv", ""},
		{"intervals csv", http.MethodGet, "/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=4&format=csv", ""},
		{"advise csv", http.MethodGet, "/v1/advise?bench=" + testBench + "&max_threads=4&format=csv", ""},
		{"whatif csv", http.MethodPost, "/v1/whatif?format=csv", cellBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := exp.NewEngine(sim.Default(), exp.WithWorkers(1))
			do := func(timeout time.Duration) *httptest.ResponseRecorder {
				req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
				w := httptest.NewRecorder()
				New(Options{Engine: e, SimTimeout: timeout}).Handler().ServeHTTP(w, req)
				return w
			}
			runs := func() [3]int {
				st := e.Stats()
				return [3]int{st.SeqRuns, st.CellRuns, st.IntervalRuns}
			}
			want := do(time.Minute)
			if want.Code != http.StatusOK {
				t.Fatalf("patient request: status %d (%s)", want.Code, want.Body)
			}
			warm := runs()
			for i := 0; i < 3; i++ {
				if w := do(time.Nanosecond); w.Code != http.StatusOK || w.Body.String() != want.Body.String() {
					t.Fatalf("memoized request under a 1ns budget: status %d, body %q, want 200 %q", w.Code, w.Body, want.Body)
				}
			}
			if got := runs(); got != warm {
				t.Errorf("memoized requests simulated: ran %v, warm-up ran %v", got, warm)
			}
		})
	}
}

// TestWhatIfMemoHitsOverHTTP pins how a what-if counts its memo hits on
// /metrics, whichever path answers it: a partially cached what-if (the
// baseline warmed by /v1/stack, the mutations not) counts the baseline
// once, and a repeat counts the baseline and each mutation once.
func TestWhatIfMemoHitsOverHTTP(t *testing.T) {
	s, _ := newTestServer(t)
	hits := func() int {
		return int(scrape(t, s.Handler()).value(t, "speedupd_sim_cell_memo_hits_total"))
	}
	if w := get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2"); w.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", w.Code, w.Body)
	}
	body := `{"bench":"` + testBench + `","threads":2}`
	for _, want := range []int{1, 3} {
		before := hits()
		if w := post(t, s.Handler(), "/v1/whatif", body); w.Code != http.StatusOK {
			t.Fatalf("whatif: status %d (%s)", w.Code, w.Body)
		}
		if got := hits() - before; got != want {
			t.Errorf("whatif moved the cell memo hits by %d, want %d", got, want)
		}
	}
}

// flushCounter is a response writer that counts Flush calls and runs
// onFlush on each.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	onFlush func()
}

func (f *flushCounter) Flush() {
	f.flushes++
	if f.onFlush != nil {
		f.onFlush()
	}
	f.ResponseRecorder.Flush()
}

// TestStreamSweepFlushesOnlyBeforeWaiting pins when a streamed sweep pushes
// rows onto the wire: rows already answered go out together at the end, and
// the handler flushes only when it must wait for a cell — so an all-memoized
// sweep flushes nothing inside its loop, and a sweep whose second cell
// misses flushes once, before the miss's simulation has finished. The body
// is the same bytes a fresh server streams.
func TestStreamSweepFlushesOnlyBeforeWaiting(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2), exp.WithRunHook(func(kind, bench string, threads, cores int) {
		if g := gate.Load(); g != nil && kind == "cell" {
			select {
			case <-*g:
			case <-time.After(10 * time.Second):
			}
		}
	}))
	h := New(Options{Engine: e}).Handler()
	cell := func(threads int) string { return fmt.Sprintf(`{"bench":%q,"threads":%d}`, testBench, threads) }
	stream := func(h http.Handler, w http.ResponseWriter, cells ...string) {
		body := `{"cells":[` + strings.Join(cells, ",") + `]}`
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep?format=ndjson", strings.NewReader(body)))
	}
	fresh := func(cells ...string) string {
		s, _ := newTestServer(t)
		w := httptest.NewRecorder()
		stream(s.Handler(), w, cells...)
		return w.Body.String()
	}

	if w := post(t, h, "/v1/sweep", `{"cells":[`+cell(1)+","+cell(2)+`]}`); w.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", w.Code, w.Body)
	}
	hit := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	stream(h, hit, cell(1), cell(2))
	if hit.flushes != 0 {
		t.Errorf("all-memoized streamed sweep flushed %d times, want 0", hit.flushes)
	}
	if want := fresh(cell(1), cell(2)); hit.Code != http.StatusOK || hit.Body.String() != want {
		t.Errorf("all-memoized stream: status %d, body %q, want 200 %q", hit.Code, hit.Body, want)
	}

	flushed := make(chan struct{})
	gate.Store(&flushed)
	miss := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	miss.onFlush = func() {
		if miss.flushes == 1 {
			close(flushed)
		}
	}
	stream(h, miss, cell(2), cell(4))
	if miss.flushes != 1 {
		t.Errorf("streamed sweep with one miss flushed %d times, want 1", miss.flushes)
	}
	if want := fresh(cell(2), cell(4)); miss.Code != http.StatusOK || miss.Body.String() != want {
		t.Errorf("stream with a miss: status %d, body %q, want 200 %q", miss.Code, miss.Body, want)
	}
}

// TestConcurrentRepliesMatchSerial sends warmed requests in every format
// through Handler() from many goroutines at once, a 512-interval timeline
// SVG (a body past the encoder pool's retention cap) among them. Every
// reply must equal the same request's serial reply byte for byte: a pooled
// body is never shared by two renders, nor written after its release.
func TestConcurrentRepliesMatchSerial(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	cell := "bench=" + testBench + "&threads=2"
	sweep := `{"cells":[{"bench":"` + testBench + `","threads":2},{"bench":"` + testBench + `","threads":1}]}`
	type request struct{ method, target, body string }
	var reqs []request
	for _, f := range []string{"json", "csv", "svg", "text", "ndjson"} {
		reqs = append(reqs,
			request{http.MethodGet, "/v1/stack?" + cell + "&format=" + f, ""},
			request{http.MethodGet, "/v1/stack/intervals?" + cell + "&intervals=32&format=" + f, ""},
			request{http.MethodGet, "/v1/advise?bench=" + testBench + "&max_threads=4&format=" + f, ""},
			request{http.MethodPost, "/v1/sweep?format=" + f, sweep})
	}
	reqs = append(reqs, request{http.MethodGet, "/v1/stack/intervals?" + cell + "&intervals=512&format=svg", ""})
	do := func(rq request) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(rq.method, rq.target, strings.NewReader(rq.body)))
		return w.Code, w.Body.String()
	}
	serial := make([]string, len(reqs))
	for i, rq := range reqs {
		code, body := do(rq)
		if code != http.StatusOK {
			t.Fatalf("%s %s: status %d (%s)", rq.method, rq.target, code, body)
		}
		serial[i] = body
	}
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rounds * len(reqs) {
				i := (g*7 + k) % len(reqs) // each goroutine walks the list from its own offset
				if code, body := do(reqs[i]); code != http.StatusOK || body != serial[i] {
					t.Errorf("%s %s under concurrency: status %d, a %d-byte body unlike the serial reply's %d bytes",
						reqs[i].method, reqs[i].target, code, len(body), len(serial[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
