package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates on average over runs calls, after one warm-up call, with
// GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMemoHitAllocations holds warmed requests, served through Handler()
// from the memo, to what they allocate in every format and on every row
// memo_hit sends: the request's recorder, the body, the calls and the
// document. The engine call allocates nothing (its outcomes fill the rows
// in place), the query is read in place without a map, a hit builds no
// deadline, the option parse allocates only the judged cell's name, and
// every format renders into a pooled body, so no encoder buffer is
// allocated once the pool is warm.
func TestMemoHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, sims := newTestServer(t)
	h := s.Handler()
	stack := "/v1/stack?bench=" + testBench + "&threads=2&format="
	sweep := `{"cells":[{"bench":"` + testBench + `","threads":2},{"bench":"` + testBench + `","threads":4}]}`
	for _, tc := range []struct {
		name, target, body string
		allocs, bytes      float64
	}{
		// Measured (allocations and bytes; while Do returned an Outcome
		// slice and the query was parsed into a url.Values map, in
		// brackets): json 21 and 1,867 (29 and 2,910), csv 32 and 2,024 (40
		// and 3,064), svg 22 and 5,541 (30 and 6,580), text 19 and 1,795
		// (27 and 2,835), ndjson 21 and 1,771 (29 and 2,811), 32 intervals
		// 19 and 12,544 (24 and 12,992), the two-cell streamed sweep 45 and
		// 4,224 (56 and 5,904), advise 21 and 2,683 (26 and 4,651), and the
		// what-if 63 and 8,531 (65 and 10,115), most of which is its
		// mutations' specs and their hashes. Earlier the per-call maps,
		// deadline and csv.Writer, an Outcome holding the whole sim.Result
		// and per-format encoder buffers cost json 47 and 6,912. What is
		// left is mostly the recorder, net/http's header maps and the
		// document's own values. Each bound is its measurement plus an
		// eighth more allocations and x1.14 bytes.
		{"json", stack + "json", "", 24, 2130},
		{"csv", stack + "csv", "", 36, 2310},
		{"svg", stack + "svg", "", 25, 6320},
		{"text", stack + "text", "", 22, 2050},
		{"ndjson", stack + "ndjson", "", 24, 2020},
		{"intervals", "/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=32", "", 22, 14300},
		{"sweep", "/v1/sweep?format=ndjson", sweep, 51, 4820},
		{"advise", "/v1/advise?bench=" + testBench + "&max_threads=4", "", 24, 3060},
		{"whatif", "/v1/whatif", `{"bench":"` + testBench + `","threads":2}`, 71, 9730},
	} {
		method, body := http.MethodGet, strings.NewReader(tc.body)
		if tc.body != "" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, tc.target, body)
		reqBody := req.Body // the handler wraps req.Body in place
		serve := func() {
			body.Reset(tc.body)
			req.Body = reqBody
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", tc.name, w.Code, w.Body)
			}
		}
		serve() // the miss that warms the memo
		allocs := testing.AllocsPerRun(200, serve)
		bytes := bytesPerRun(200, serve)
		t.Logf("%s: %v allocations, %.0f bytes per request", tc.name, allocs, bytes)
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Errorf("a memoized %s costs %v allocations and %.0f bytes, want <= %v and <= %v",
				tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
	if *sims != 5 {
		t.Errorf("ran %d cell simulations, want the five warm-ups (two stacks, advise's one-thread point, what-if's two mutations)", *sims)
	}
}

// TestReadReplySizesOnce holds ReadReply's buffer to the reply's declared
// length: a reply that keeps its word is read into one allocation of its
// own size, and a declared length past 64 KiB — a peer may declare
// anything — buys no more than 64 KiB up front.
func TestReadReplySizesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	var r bytes.Reader
	read := func(body []byte, declared int64) func() {
		return func() {
			r.Reset(body)
			if data, err := ReadReply(&r, declared); err != nil || !bytes.Equal(data, body) {
				t.Fatalf("ReadReply(%d bytes, %d): %d bytes, %v", len(body), declared, len(data), err)
			}
		}
	}
	honest := bytes.Repeat([]byte("x"), 40<<10)
	if n := testing.AllocsPerRun(20, read(honest, int64(len(honest)))); n != 1 {
		t.Errorf("a reply of its declared %d bytes took %v allocations, want 1", len(honest), n)
	}
	if data, _ := ReadReply(bytes.NewReader(honest), int64(len(honest))); cap(data) != len(honest)+1 {
		t.Errorf("a reply of its declared %d bytes is held in a buffer of %d, want %d", len(honest), cap(data), len(honest)+1)
	}
	if n := bytesPerRun(20, read([]byte("{}"), MaxReplyBytes)); n > 2*readStart {
		t.Errorf("a 2-byte reply declared %d bytes allocated %.0f bytes, want <= %d", MaxReplyBytes, n, 2*readStart)
	}
}

// TestParseOptionsAllocations holds the option parse of a valid query, read
// from its raw string, to at most one allocation on every row that takes
// query parameters: the query walk builds no map, the walk over the row's
// list finds an unknown name without a sort, and nothing is built but what
// judging the cell allocates.
func TestParseOptionsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	queries := map[string]string{
		"/v1/stack":           "bench=cholesky&threads=4&cores=2&format=csv&mode=fast",
		"/v1/stack/intervals": "bench=cholesky&threads=4&intervals=8&mode=exact",
		"/v1/advise":          "bench=cholesky&max_threads=8&format=json",
		"/v1/traces/analyze":  "cores=2&format=text",
	}
	for i := range routes {
		rt := &routes[i]
		raw, ok := queries[rt.path]
		if !ok {
			continue
		}
		delete(queries, rt.path)
		if _, aerr := rt.parseOptions(query(raw), ""); aerr != nil {
			t.Fatalf("%s?%s: %s", rt.path, raw, aerr.Message)
		}
		allocs := testing.AllocsPerRun(200, func() { rt.parseOptions(query(raw), "") })
		t.Logf("%s?%s: %v allocations", rt.path, raw, allocs)
		if allocs > 1 {
			t.Errorf("parsing %s?%s costs %v allocations, want <= 1", rt.path, raw, allocs)
		}
	}
	for path := range queries {
		t.Errorf("no row for %s", path)
	}
}
