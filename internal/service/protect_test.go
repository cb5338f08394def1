package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
)

// sweepNDJSONBody is a two-cell sweep body used by the streaming tests.
const sweepNDJSONBody = `{"cells":[
	{"bench":"blackscholes_parsec_small","threads":2},
	{"bench":"swaptions_parsec_small","threads":2}]}`

// TestSweepNDJSONStreaming pins the streaming sweep surface: one compact
// JSON line per cell, declared order, ndjson content type.
func TestSweepNDJSONStreaming(t *testing.T) {
	s, _ := newTestServer(t)
	w := post(t, s.Handler(), "/v1/sweep?format=ndjson", sweepNDJSONBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), w.Body)
	}
	for i, want := range []string{"blackscholes", "swaptions"} {
		var row stack.ReportRow
		if err := json.Unmarshal([]byte(lines[i]), &row); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if !strings.Contains(row.Benchmark, want) {
			t.Errorf("line %d benchmark %q, want %q (declared order)", i, row.Benchmark, want)
		}
		if strings.Contains(lines[i], "\n") || strings.Contains(lines[i], "  ") {
			t.Errorf("line %d is not compact: %q", i, lines[i])
		}
	}
}

// TestSweepNDJSONMergesToJSON pins that a sweep's two JSON forms are one
// report: wrapping the compact NDJSON lines into an array and indenting
// reproduces the FormatJSON response exactly.
func TestSweepNDJSONMergesToJSON(t *testing.T) {
	s, _ := newTestServer(t)
	nd := post(t, s.Handler(), "/v1/sweep?format=ndjson", sweepNDJSONBody)
	js := post(t, s.Handler(), "/v1/sweep?format=json", sweepNDJSONBody)
	if nd.Code != http.StatusOK || js.Code != http.StatusOK {
		t.Fatalf("status ndjson=%d json=%d", nd.Code, js.Code)
	}
	lines := strings.Split(strings.TrimRight(nd.Body.String(), "\n"), "\n")
	compact := "[" + strings.Join(lines, ",") + "]"
	var merged bytes.Buffer
	if err := json.Indent(&merged, []byte(compact), "", "  "); err != nil {
		t.Fatal(err)
	}
	merged.WriteByte('\n')
	if merged.String() != js.Body.String() {
		t.Errorf("merged NDJSON != JSON response:\n%s\nvs\n%s", merged.String(), js.Body)
	}
}

// TestAdmissionControl holds the single admission slot open with a blocked
// simulation and asserts the next request is shed fast with the 429
// "overloaded" envelope and a Retry-After hint, then that releasing the
// slot restores service.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	var inHook atomic.Bool
	entered := make(chan struct{})
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2),
		exp.WithRunHook(func(kind, bench string, threads, cores int) {
			if kind == "cell" && inHook.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
		}))
	s := New(Options{Engine: e, MaxInFlight: 1})

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2")
	}()
	<-entered // the first request now owns the only slot

	w := get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Error("429 without Retry-After header")
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != codeOverloaded {
		t.Fatalf("envelope %s (err %v), want code %q", w.Body, err, codeOverloaded)
	}

	close(release)
	if first := <-done; first.Code != http.StatusOK {
		t.Fatalf("admitted request: status %d: %s", first.Code, first.Body)
	}
	if w := get(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz shed: %d", w.Code)
	}
	scrape(t, s.Handler()).want(t, map[string]float64{`speedupd_throttled_total{reason="overloaded"}`: 1})
}

// TestRateLimit exhausts a one-token bucket and asserts the 429
// "rate_limited" envelope, Retry-After, the hop-header bypass for
// fleet-internal traffic, and the throttle counter on /metrics.
func TestRateLimit(t *testing.T) {
	s, _ := newTestServer(t)
	s.limiter = newRateLimiter(0.5) // 1 token, slow refill
	target := "/v1/stack?bench=" + testBench + "&threads=2"

	if w := get(t, s.Handler(), target); w.Code != http.StatusOK {
		t.Fatalf("first request: %d: %s", w.Code, w.Body)
	}
	w := get(t, s.Handler(), target)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: %d: %s", w.Code, w.Body)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != codeRateLimited {
		t.Fatalf("envelope %s (err %v), want code %q", w.Body, err, codeRateLimited)
	}
	if got := w.Header().Get("Retry-After"); got == "" || got == "0" {
		t.Errorf("Retry-After %q, want a positive backoff", got)
	}

	// A fleet hop is pre-accounted at the accepting node: it bypasses the
	// limiter (but not admission).
	if w := get(t, s.Handler(), target, HopHeader, "1"); w.Code != http.StatusOK {
		t.Errorf("hop-marked request limited: %d: %s", w.Code, w.Body)
	}
	scrape(t, s.Handler()).want(t, map[string]float64{`speedupd_throttled_total{reason="rate_limited"}`: 1})
}

// TestRateLimiterRefill drives the token bucket with explicit clocks:
// tokens refill at the configured rate up to the burst, and the retry hint
// covers the deficit.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2) // 2 rps, burst 2
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if _, ok := l.allow("c", t0); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	retry, ok := l.allow("c", t0)
	if ok {
		t.Fatal("empty bucket allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s] at 2 rps", retry)
	}
	if _, ok := l.allow("c", t0.Add(time.Second)); !ok {
		t.Fatal("no refill after 1s at 2 rps")
	}
	// Distinct clients have distinct buckets.
	if _, ok := l.allow("other", t0); !ok {
		t.Fatal("fresh client denied")
	}
}

// TestRateLimiterBoundedUnderActiveClients: prune frees nothing while every
// client is active, so the bound has to come from eviction — twice the bound
// of distinct clients at one instant must not grow the map past it.
func TestRateLimiterBoundedUnderActiveClients(t *testing.T) {
	l := newRateLimiter(1)
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2*maxRateClients; i++ {
		if _, ok := l.allow(strconv.Itoa(i), t0); !ok {
			t.Fatalf("fresh client %d denied", i)
		}
	}
	if n := len(l.buckets); n > maxRateClients {
		t.Fatalf("%d buckets for %d active clients, bound is %d", n, 2*maxRateClients, maxRateClients)
	}
	// The newest client kept its bucket: it is spent, not reset.
	if _, ok := l.allow(strconv.Itoa(2*maxRateClients-1), t0); ok {
		t.Fatal("most recent client's bucket was evicted")
	}
}

// TestMetricsOccupancy pins the cache-occupancy lines next to the existing
// churn counters.
func TestMetricsOccupancy(t *testing.T) {
	s, _ := newTestServer(t)
	if w := get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2"); w.Code != http.StatusOK {
		t.Fatalf("stack: %d", w.Code)
	}
	scrape(t, s.Handler()).want(t, map[string]float64{
		"speedupd_sim_cell_memo_entries": 1,
		"speedupd_sim_cell_memo_limit":   float64(s.Engine().Stats().CellMemoLimit),
	})
}
