package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// TestMemoHitAllocations holds a warmed GET /v1/stack, served through
// Handler() from the memo, to what it allocates in JSON and in CSV: the
// request's recorder, the query, the engine's reply slice and the body.
// The engine call allocates no per-call maps, a hit builds no deadline,
// and CSV is appended in place without a csv.Writer's 4 KiB buffer.
func TestMemoHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, sims := newTestServer(t)
	h := s.Handler()
	for _, tc := range []struct {
		format        string
		allocs, bytes float64
	}{
		// Measured 31 allocations and 3,824 bytes (47 and 6,912 with the
		// per-call maps, deadline and csv.Writer, 3,952 while the engine's
		// Outcome carried the whole sim.Result), and 40 and 3,304 (58 and
		// 10,536, then 3,432). The byte bounds keep the headroom 4,500 and
		// 4,000 gave over 3,952 and 3,432.
		{"json", 35, 4350},
		{"csv", 45, 3850},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/stack?bench="+testBench+"&threads=2&format="+tc.format, nil)
		serve := func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", tc.format, w.Code, w.Body)
			}
		}
		serve() // the miss that warms the memo
		allocs := testing.AllocsPerRun(200, serve)
		bytes := bytesPerRun(200, serve)
		t.Logf("%s: %v allocations, %.0f bytes per request", tc.format, allocs, bytes)
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Errorf("a memoized %s /v1/stack costs %v allocations and %.0f bytes, want <= %v and <= %v",
				tc.format, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
	if *sims != 1 {
		t.Errorf("ran %d cell simulations, want the one warm-up", *sims)
	}
}

// TestReadReplySizesOnce holds ReadReply's buffer to the reply's declared
// length: a reply that keeps its word is read into one allocation of its
// own size, and a declared length past replyStart — a peer may declare
// anything — buys no more than replyStart up front.
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
	if n := bytesPerRun(20, read([]byte("{}"), MaxReplyBytes)); n > 2*replyStart {
		t.Errorf("a 2-byte reply declared %d bytes allocated %.0f bytes, want <= %d", MaxReplyBytes, n, 2*replyStart)
	}
}
