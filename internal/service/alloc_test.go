package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// from the memo, to what they allocate in every format: the request's
// recorder, the query or body, the engine's reply and the document. The
// engine call allocates no per-call maps, a hit builds no deadline, the
// option parse allocates only the judged cell's name, and every format
// renders into a pooled body, so no encoder buffer is allocated once the
// pool is warm.
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
		// Measured with pooled bodies (allocations and bytes; before them in
		// brackets): json 28 and 2,952 (31 and 3,824; 47 and 6,912 with the
		// per-call maps, deadline and csv.Writer, 3,952 while the engine's
		// Outcome carried the whole sim.Result), csv 39 and 3,114 (40 and
		// 3,304; 58 and 10,536, then 3,432), svg 29 and 6,625 (30 and
		// 12,792), text 31 and 4,224 (32 and 4,672), ndjson 28 and 2,856
		// (31 and 3,304), 32 intervals 25 and 13,211 (29 and 33,330), and
		// the two-cell streamed sweep 57 and 5,842 (62 and 6,720). Most of
		// what is left is the recorder, the query and the document's own
		// values. The bounds keep the headroom 4,500 and 4,000 bytes gave
		// over 3,952 and 3,432 (json ×1.1375, csv ×1.165, the new rows
		// ×1.14) and about an eighth more allocations. Since then the option
		// parse stopped allocating (three fewer allocations on every GET
		// row), and text appends its bars and table straight into the body:
		// 24 and 2,784, bounded the same way.
		{"json", stack + "json", "", 32, 3400},
		{"csv", stack + "csv", "", 45, 3650},
		{"svg", stack + "svg", "", 33, 7600},
		{"text", stack + "text", "", 27, 3200},
		{"ndjson", stack + "ndjson", "", 32, 3300},
		{"intervals", "/v1/stack/intervals?bench=" + testBench + "&threads=2&intervals=32", "", 29, 15100},
		{"sweep", "/v1/sweep?format=ndjson", sweep, 65, 6700},
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
	if *sims != 2 {
		t.Errorf("ran %d cell simulations, want the two warm-ups", *sims)
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
	const start = 64 << 10
	if n := bytesPerRun(20, read([]byte("{}"), MaxReplyBytes)); n > 2*start {
		t.Errorf("a 2-byte reply declared %d bytes allocated %.0f bytes, want <= %d", MaxReplyBytes, n, 2*start)
	}
}

// TestParseOptionsAllocations holds the option parse of a valid query to at
// most one allocation on every row that takes query parameters: the walk
// over the row's list finds an unknown name without a map or a sort, and
// builds nothing but what judging the cell allocates.
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
		query, ok := queries[rt.path]
		if !ok {
			continue
		}
		delete(queries, rt.path)
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		if _, aerr := rt.parseOptions(q, ""); aerr != nil {
			t.Fatalf("%s?%s: %s", rt.path, query, aerr.Message)
		}
		allocs := testing.AllocsPerRun(200, func() { rt.parseOptions(q, "") })
		t.Logf("%s?%s: %v allocations", rt.path, query, allocs)
		if allocs > 1 {
			t.Errorf("parsing %s?%s costs %v allocations, want <= 1", rt.path, query, allocs)
		}
	}
	for path := range queries {
		t.Errorf("no row for %s", path)
	}
}
