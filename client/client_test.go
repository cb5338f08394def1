package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	speedupstack "repro"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/sim"
)

const testBench = "blackscholes_parsec_small"

// newTestClient serves a real service over a loopback listener, so the
// client is exercised through the full HTTP stack.
func newTestClient(t *testing.T) *Client {
	t.Helper()
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2))
	srv := httptest.NewServer(service.New(service.Options{Engine: e}).Handler())
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

func TestClientStackAndBenchmarks(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	names, err := c.Benchmarks(ctx)
	if err != nil {
		t.Fatalf("benchmarks: %v", err)
	}
	if len(names) < 20 {
		t.Errorf("only %d benchmarks", len(names))
	}

	row, err := c.Stack(ctx, Cell{Bench: testBench, Threads: 2})
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	if row.Benchmark != testBench || row.Threads != 2 || row.Actual <= 0 {
		t.Errorf("unexpected row: %+v", row)
	}

	rep, err := c.StackIntervals(ctx, Cell{Bench: testBench, Threads: 2}, 4)
	if err != nil {
		t.Fatalf("intervals: %v", err)
	}
	if rep.Benchmark != testBench || len(rep.Intervals) == 0 {
		t.Errorf("unexpected report: %+v", rep)
	}

	rows, err := c.Sweep(ctx, []Cell{
		{Bench: testBench, Threads: 2},
		{Bench: "swaptions", Threads: 2},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(rows) != 2 || rows[1].Benchmark != "swaptions_parsec_medium" {
		t.Errorf("unexpected sweep rows: %+v", rows)
	}
}

func TestClientAnalyzeAndValidate(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	spec := speedupstack.Workload{
		Name: "client-kernel", Kind: speedupstack.WorkloadDataParallel,
		ArrayBytes: 524288, SweepsPerPhase: 1, Phases: 1,
		InstrPerAccess: 2500, StoreFrac: 0.1, Seed: 7,
	}
	// A spec cell goes through the same three methods as a named one: the
	// client picks POST /v1/workloads/analyze (or /v1/whatif) for it.
	cell := Cell{Spec: &spec, Threads: 2}
	row, err := c.Stack(ctx, cell)
	if err != nil {
		t.Fatalf("stack of a spec: %v", err)
	}
	if row.Benchmark != "client-kernel" || row.Actual <= 0 {
		t.Errorf("unexpected row: %+v", row)
	}
	for _, n := range []int{4, 0} { // 0: the server's default count, as for a named cell
		rep, err := c.StackIntervals(ctx, cell, n)
		if err != nil {
			t.Fatalf("intervals of a spec: %v", err)
		}
		if rep.Benchmark != "client-kernel" || rep.Aggregate != row || len(rep.Intervals) == 0 || (n > 0 && len(rep.Intervals) > n) {
			t.Errorf("intervals=%d: unexpected report: %+v", n, rep)
		}
	}
	wrep, err := c.WhatIf(ctx, cell, []string{speedupstack.WhatIfDoubleLLC})
	if err != nil {
		t.Fatalf("what-if of a spec: %v", err)
	}
	if wrep.Benchmark != "client-kernel" || wrep.Threads != 2 || len(wrep.Predictions) != 1 {
		t.Errorf("unexpected what-if report: %+v", wrep)
	}

	v, err := c.Validate(ctx, []byte(`{"name":"x","kind":"data_parallel","array_bytes":524288,"sweeps_per_phase":1,"phases":1}`))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !v.Valid || len(v.Fingerprint) != 64 || v.Canonical == nil {
		t.Errorf("unexpected validate result: %+v", v)
	}
	v, err = c.Validate(ctx, []byte(`{"name":"x","kind":"data_parallel"}`))
	if err != nil {
		t.Fatalf("validate invalid spec: %v", err)
	}
	if v.Valid || !strings.Contains(v.Error, "array_bytes") {
		t.Errorf("invalid spec not reported: %+v", v)
	}
}

func TestClientAdvise(t *testing.T) {
	c := newTestClient(t)
	a, err := c.Advise(context.Background(), testBench, 4)
	if err != nil {
		t.Fatalf("advise: %v", err)
	}
	if a.Benchmark != testBench || a.MaxThreads != 4 || len(a.Points) != 3 || a.Class == "" {
		t.Errorf("unexpected advice: %+v", a)
	}

	// The Raw escape hatch serves the negotiated text report.
	body, ct, err := c.Raw(context.Background(), "/v1/advise",
		url.Values{"bench": {testBench}, "max_threads": {"4"}, "format": {"text"}}, "")
	if err != nil {
		t.Fatalf("raw advise: %v", err)
	}
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(string(body), "amdahl") {
		t.Errorf("text advise: content type %q, body %.60q", ct, string(body))
	}
}

func TestClientAPIError(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	_, err := c.Stack(ctx, Cell{Bench: "choleski", Threads: 2})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T (%v), want *APIError", err, err)
	}
	if ae.StatusCode != 404 || ae.Code != "unknown_benchmark" || ae.Suggestion != "cholesky" {
		t.Errorf("unexpected APIError: %+v", ae)
	}
	if !strings.Contains(ae.Error(), "unknown_benchmark") {
		t.Errorf("Error() = %q", ae.Error())
	}

	_, err = c.Advise(ctx, testBench, 2)
	if !errors.As(err, &ae) || ae.StatusCode != 400 || ae.Code != "invalid_argument" {
		t.Errorf("bad max_threads: %v", err)
	}

	// A plain-text error body still decodes into an APIError.
	_, _, err = c.Raw(ctx, "/v1/stack",
		url.Values{"bench": {testBench}, "threads": {"zero"}, "format": {"text"}}, "")
	if !errors.As(err, &ae) {
		t.Fatalf("text error is %T, want *APIError", err)
	}
	if ae.Code != "" || !strings.Contains(ae.Message, "threads") {
		t.Errorf("text error: %+v", ae)
	}
}

// TestClientMode pins the client's fidelity knob: Mode="fast" rides every
// simulating call as ?mode=fast, the server counts the runs as sampled or
// refuses the analyses fast mode cannot serve, and a bogus mode fails with
// the uniform invalid_argument envelope.
func TestClientMode(t *testing.T) {
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2))
	srv := httptest.NewServer(service.New(service.Options{Engine: e}).Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)
	c.Mode = "fast"
	ctx := context.Background()

	row, err := c.Stack(ctx, Cell{Bench: testBench, Threads: 2})
	if err != nil {
		t.Fatalf("fast stack: %v", err)
	}
	if row.Benchmark != testBench || row.Actual <= 0 {
		t.Errorf("unexpected row: %+v", row)
	}
	if st := e.Stats(); st.FastCellRuns != 1 || st.CellRuns != 1 {
		t.Fatalf("fast run not counted: %+v", st)
	}

	if _, err := c.Sweep(ctx, []Cell{{Bench: testBench, Threads: 4}}); err != nil {
		t.Fatalf("fast sweep: %v", err)
	}
	if st := e.Stats(); st.FastCellRuns != st.CellRuns {
		t.Fatalf("sweep cell not fast: %+v", st)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(m, "speedupd_sim_cell_runs_fast_total") ||
		!strings.Contains(m, "speedupd_sim_cell_runs_exact_total") {
		t.Errorf("metrics missing fidelity split:\n%s", m)
	}

	// Advise and WhatIf send the mode too, and the engine refuses both on
	// the sampled machine before simulating anything.
	runs := e.Stats().CellRuns
	var ae *APIError
	_, err = c.Advise(ctx, testBench, 4)
	if !errors.As(err, &ae) || ae.StatusCode != 400 || ae.Code != "invalid_argument" {
		t.Errorf("fast advise error = %v", err)
	}
	_, err = c.WhatIf(ctx, Cell{Bench: testBench, Threads: 2}, nil)
	if !errors.As(err, &ae) || ae.StatusCode != 400 || ae.Code != "invalid_argument" {
		t.Errorf("fast what-if error = %v", err)
	}
	if st := e.Stats(); st.CellRuns != runs {
		t.Errorf("refused calls ran %d simulations", st.CellRuns-runs)
	}

	c.Mode = "bogus"
	_, err = c.Stack(ctx, Cell{Bench: testBench, Threads: 2})
	if !errors.As(err, &ae) || ae.Code != "invalid_argument" {
		t.Fatalf("bogus mode error = %v", err)
	}
}

// flakyServer answers fail429 requests with the service's shed envelope
// (Retry-After: 0 keeps the test fast), then succeeds.
func flakyServer(t *testing.T, fail int, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(fail) {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			io.WriteString(w, `{"error":{"code":"overloaded","message":"shed"}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"benchmarks":["a"]}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestClientOversizedReplyFails pins the reply bound: a body one byte over
// service.MaxReplyBytes is an error from every call, never a truncated
// reply — the rule the fleet hop applies to a peer's reply.
func TestClientOversizedReplyFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(" "), service.MaxReplyBytes+1))
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL)
	ctx := context.Background()
	body, _, err := c.Raw(ctx, "/v1/stack", nil, "")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("Raw: %d bytes, error %v; want the bound's error", len(body), err)
	}
	if _, err := c.Stack(ctx, Cell{Bench: testBench, Threads: 2}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("Stack: error %v; want the bound's error", err)
	}
}

// TestClientShortReplyFails pins the other end of the reply read: a body
// shorter than its declared Content-Length (the server hung up mid-reply)
// is an error, never the bytes that arrived, although the reader sized its
// buffer from the declared length.
func TestClientShortReplyFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "1000")
		io.WriteString(w, `{"benchmarks":[`)
	}))
	t.Cleanup(srv.Close)
	body, _, err := New(srv.URL).Raw(context.Background(), "/v1/benchmarks", nil, "")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Raw: %q, error %v; want %v", body, err, io.ErrUnexpectedEOF)
	}
}

// TestClientRetries pins the retry contract: with Retries set, a GET rides
// out 429s and 503s and succeeds on a later attempt; with the zero default
// the first 429 is surfaced as *APIError.
func TestClientRetries(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv, hits := flakyServer(t, 2, status)
		c := New(srv.URL)
		c.Retries = 3
		names, err := c.Benchmarks(context.Background())
		if err != nil {
			t.Fatalf("status %d with retries: %v", status, err)
		}
		if len(names) != 1 || hits.Load() != 3 {
			t.Errorf("status %d: names %v after %d attempts, want 1 name after 3", status, names, hits.Load())
		}
	}

	// Default: no retrying.
	srv, hits := flakyServer(t, 1, http.StatusTooManyRequests)
	c := New(srv.URL)
	_, err := c.Benchmarks(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 429 || ae.Code != "overloaded" {
		t.Fatalf("zero-retries error = %v, want 429 overloaded APIError", err)
	}
	if hits.Load() != 1 {
		t.Errorf("%d attempts without Retries, want 1", hits.Load())
	}
}

// TestClientRetriesExhausted pins that a server that never recovers
// surfaces the final shed response, after exactly 1+Retries attempts.
func TestClientRetriesExhausted(t *testing.T) {
	srv, hits := flakyServer(t, 100, http.StatusTooManyRequests)
	c := New(srv.URL)
	c.Retries = 2
	_, err := c.Benchmarks(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 429 {
		t.Fatalf("exhausted retries error = %v, want 429 APIError", err)
	}
	if hits.Load() != 3 {
		t.Errorf("%d attempts with Retries=2, want 3", hits.Load())
	}
}

// TestClientNoRetryOnPost pins that POSTs are never retried, even with
// Retries set — re-sending could simulate a sweep twice.
func TestClientNoRetryOnPost(t *testing.T) {
	srv, hits := flakyServer(t, 100, http.StatusTooManyRequests)
	c := New(srv.URL)
	c.Retries = 3
	_, err := c.Sweep(context.Background(), []Cell{{Bench: testBench, Threads: 2}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 429 {
		t.Fatalf("POST error = %v, want 429 APIError", err)
	}
	if hits.Load() != 1 {
		t.Errorf("POST issued %d times with Retries=3, want 1", hits.Load())
	}
}

// TestClientRetryHonorsContext pins that cancellation interrupts the
// backoff wait instead of letting the retry fire, also when the server asks
// for a wait longer than a time.Duration holds.
func TestClientRetryHonorsContext(t *testing.T) {
	for _, retryAfter := range []string{"30", "9999999999"} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		t.Cleanup(srv.Close)
		c := New(srv.URL)
		c.Retries = 1
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := c.Benchmarks(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Retry-After %s: error = %v, want context deadline", retryAfter, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("Retry-After %s: cancellation took %v — backoff not interruptible", retryAfter, d)
		}
		if hits.Load() != 1 {
			t.Errorf("Retry-After %s: %d attempts, want 1 (retry must not fire after cancel)", retryAfter, hits.Load())
		}
	}
}

// TestClientAnalyzeTrace drives the trace-upload wrapper through the full
// HTTP stack: record in-process, upload, replay at the recorded thread
// count, and get the uniform envelope back for a corrupt body.
func TestClientAnalyzeTrace(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	var tr bytes.Buffer
	if err := speedupstack.RecordTrace(&tr, speedupstack.Request{Bench: testBench, Threads: 2}); err != nil {
		t.Fatalf("record: %v", err)
	}
	row, err := c.AnalyzeTrace(ctx, bytes.NewReader(tr.Bytes()), 0)
	if err != nil {
		t.Fatalf("analyze trace: %v", err)
	}
	if row.Benchmark != testBench || row.Threads != 2 || row.Actual <= 0 {
		t.Errorf("unexpected row: %+v", row)
	}

	_, err = c.AnalyzeTrace(ctx, strings.NewReader("not a trace"), 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 400 || ae.Code != "invalid_argument" ||
		!strings.Contains(ae.Message, "bad trace") {
		t.Errorf("corrupt trace error = %v", err)
	}
}
