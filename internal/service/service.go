// Package service exposes the analysis pipeline as a long-running HTTP
// API: the speedupd server. It is a thin, heavily-cached serving surface
// over the exp sweep engine.
//
// Endpoints:
//
//	GET  /v1/stack?bench=NAME&threads=N[&cores=M][&mode=exact|fast][&format=json|csv|svg|text]
//	GET  /v1/stack/intervals?bench=NAME&threads=N[&intervals=K][&cores=M][&mode=F][&format=F]
//	POST /v1/sweep[?mode=exact|fast]
//	                      {"cells":[{"bench":"...","threads":N,"cores":M},
//	                                {"spec":{...workload spec...},"threads":N}, ...]}
//	POST /v1/workloads/analyze[?mode=F]  {"spec":{...},"threads":N[,"cores":M][,"intervals":K]}
//	POST /v1/workloads/validate  {...workload spec...}  (dry run, no simulation)
//	POST /v1/traces/analyze[?cores=M][&mode=F][&format=F]  binary op trace (≤32MB)
//	GET  /v1/advise?bench=NAME[&max_threads=M][&mode=F][&format=json|csv|svg|text]
//	POST /v1/whatif[?mode=F][&format=F]  {"bench":"...","threads":N[,"cores":M]
//	                       [,"interventions":["halve_lock_hold",...]]}
//	                      (or "spec" instead of "bench", like /v1/sweep)
//	GET  /v1/benchmarks   registered benchmark analogues
//	GET  /healthz         liveness probe
//	GET  /metrics         the metric table (metrics.go), in text exposition format
//
// /v1/stack/intervals (and "intervals" on /v1/workloads/analyze) serves the
// time-resolved form of a stack: the run divided into K equal slices of its
// committed trace operations, each slice with its own exact integer-cycle
// component breakdown (the slices sum to the aggregate; see
// internal/stack.TimeSeries). The SVG format draws a stacked timeline
// instead of the aggregate bar chart.
//
// Every simulating endpoint accepts ?mode=, the simulation fidelity:
// "exact" (the default) or "fast", the sampled machine (README, "Fast mode:
// sampled simulation"). The service forwards it to the engine, which alone
// decides which analyses the sampled machine may serve and answers a
// refusal as 400 invalid_argument, like an unknown mode. On /v1/sweep the
// mode applies to every cell in the batch. Fast and exact results never
// share a cache entry — the memo keys on the full machine configuration,
// mode included — and /metrics splits speedupd_sim_cell_runs_total into
// _exact_total and _fast_total so operators can see which fidelity is
// paying the simulation bill.
//
// Workloads are first-class: wherever a cell names a registered benchmark
// ("bench") it can instead carry an inline workload spec ("spec", the JSON
// form of workload.Spec). /v1/workloads/analyze measures one custom spec;
// /v1/workloads/validate parses and validates a spec body and reports its
// canonical form and fingerprint without simulating anything.
//
// /v1/traces/analyze is the recorded twin of /v1/workloads/analyze: the body
// is a binary op trace captured with speedup-stack -record (the versioned
// format specified in internal/trace), replayed at its recorded thread count
// and measured end-to-end. The optional ?cores= overrides the cores=threads
// default; threads is not a parameter, because a recorded op stream only
// replays at the count it was captured with. The replay cell is memoized
// under the trace's content hash (label excluded), so re-uploading the same
// trace performs zero additional simulations.
//
// /v1/advise runs the scaling advisor (internal/scaling) over a memoized
// thread sweep — powers of two up to max_threads (default
// exp.DefaultThreads, bounds [exp.MinAdviseThreads, cache.MaxCores]) — and
// reports deterministic Amdahl and USL fits, the diminishing-returns point
// N*, a linear/saturated/negative classification, a cross-check of the
// fitted serial fraction against the stack's serialization components, and
// ranked spec-field recommendations. The SVG format draws the measured
// sweep with both fitted curves overlaid.
//
// /v1/whatif runs the causal what-if engine (internal/whatif) on one cell:
// it re-evaluates the estimator with each catalog intervention's stack
// components virtually scaled, validates every prediction by re-simulating
// the concretely mutated workload or machine, and answers the ranked
// report. An unknown intervention ID is 404 unknown_intervention with the
// nearest catalog ID as the suggestion. The baseline and every mutated cell
// ride the same fingerprint-keyed memo as the rest of the surface, so
// repeating a what-if performs zero additional simulations.
//
// Report formats are negotiated per request: an explicit ?format= wins,
// then the Accept header (application/json, application/x-ndjson, text/csv,
// image/svg+xml, text/plain), then JSON. The ndjson format is the streaming
// twin of json: one compact ReportRow per line. On POST /v1/sweep it changes
// the serving discipline — rows go out in declared order as cells complete,
// flushed whenever the next row must still be waited for, so a large batch
// starts answering with its first finished cells instead of buffering the
// whole sweep; a failure after rows are on the wire terminates the stream
// with an error-envelope line.
//
// Overload protection: Options.MaxInFlight bounds how many requests may
// concurrently occupy the simulating endpoints — excess load is shed
// immediately with 429 {"error":{"code":"overloaded",...}} and a
// Retry-After header rather than queueing without bound — and
// Options.RateLimit adds a per-client (remote IP) token bucket answering
// 429 "rate_limited" the same way. Cheap introspection endpoints
// (/healthz, /metrics, /v1/benchmarks, /v1/workloads/validate) bypass
// both, so a shedding server can still be observed.
//
// The API surface is uniform: each endpoint accepts exactly its documented
// query parameters (anything else is 400 unknown_parameter, never silently
// ignored — see options.go), and every failure is the structured envelope
// {"error":{"code":...,"message":...,"suggestion":...}} described in
// errors.go; clients that negotiated the text format get a plain
// "error: ..." line instead.
//
// Caching and concurrency: results are cached in the engine's memo — an
// LRU keyed by the full (machine configuration, workload fingerprint,
// threads, cores) identity, bounded by exp.WithCellMemoLimit — and concurrent
// identical requests collapse onto a single simulation (the engine's
// singleflight protocol), so a thundering herd asking for the same stack
// costs one simulation; an inline spec identical to a registered benchmark
// (or to another request's spec, whatever its name) hits the same cache
// entry. Simulation parallelism across all requests is bounded by the
// engine's worker pool; requests beyond it queue on the pool rather than
// piling onto the CPUs.
//
// One route table, one request path: routes.go declares every endpoint
// above as one row — method, path, accepted query parameters, protection,
// where the workload identity lives, and the parse step that turns the
// request into its engine calls, each answering a stack.Document and
// carrying the label its errors are prefixed with ("cell i" for a streamed
// sweep's cell i; every other call has none). One dispatcher serves every
// row: method check, protection, option parsing, the parse step, then one
// tail, answer — each call run by detached (answered on the request's
// goroutine when the memo holds it whole, so a memo hit never times out
// and builds no deadline; otherwise under a context of its own, so a
// request that exceeds Options.SimTimeout or hangs up gets its error
// promptly while the work finishes in the background and lands in the
// memo, where a retry finds it), one error mapping, the negotiated
// Content-Type, stack.EncodeDocument, the documents written in order. A
// sweep is one batch call in the buffered formats and one call per cell in
// ndjson, which is all that makes it stream.
// Identify reads the same rows for a routing layer in front of the service
// (internal/fleet), which therefore spells no path, body shape or limit of
// its own.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Options configures a Server. The zero value serves the paper's default
// machine with sensible production bounds.
type Options struct {
	// SimTimeout caps how long one request waits for its simulations
	// (default 2m; negative disables). Exceeding it answers 504; the
	// simulations detach and finish in the background, filling the cache
	// so a retry is a hit. An answer the cache already holds whole waits
	// for nothing, so it never times out.
	SimTimeout time.Duration
	// MaxInFlight bounds how many requests may concurrently occupy the
	// simulating endpoints; excess requests are shed immediately with a
	// 429 "overloaded" envelope and a Retry-After header instead of
	// queueing (0: unbounded). Non-simulating endpoints (/healthz,
	// /metrics, /v1/benchmarks, /v1/workloads/validate) are never shed.
	MaxInFlight int
	// RateLimit, when positive, enforces a per-client (by remote IP)
	// token-bucket rate on the simulating endpoints, in requests per
	// second; over-limit requests get 429 "rate_limited" with Retry-After.
	// Fleet-internal hops (requests carrying HopHeader) bypass the rate
	// limiter — their client was accounted at the node that accepted them —
	// but still count against MaxInFlight. The bucket holds
	// max(1, ceil(RateLimit)) tokens.
	RateLimit float64
	// Engine runs every simulation, bounded by its own WithWorkers and
	// WithCellMemoLimit. It is required: the caller sizes the memo
	// (speedupd's -cache).
	Engine *exp.Engine
}

const defaultSimTimeout = 2 * time.Minute

// Server is the speedupd HTTP service.
type Server struct {
	engine     *exp.Engine
	modes      [sim.ModeFast + 1]sim.Config // the engine's machine in each mode
	simTimeout time.Duration
	mux        *http.ServeMux
	adm        admission
	limiter    *rateLimiter

	// The counters /metrics reads (metrics.go).
	requests    []routeRequests     // one per route-table row
	responses   [1000]atomic.Uint64 // by status code; net/http writes only 100-999
	shed        atomic.Uint64       // admission rejections (429 overloaded)
	rateLimited atomic.Uint64       // rate-limit rejections (429 rate_limited)
}

// New assembles a Server from the options; opts.Engine must be set.
func New(opts Options) *Server {
	st := opts.SimTimeout
	if st == 0 {
		st = defaultSimTimeout
	}
	if st < 0 {
		st = 0
	}
	s := &Server{
		engine:     opts.Engine,
		simTimeout: st,
		mux:        http.NewServeMux(),
		adm:        admission{limit: int64(opts.MaxInFlight)},
		limiter:    newRateLimiter(opts.RateLimit),
		requests:   make([]routeRequests, len(routes)),
	}
	for m := range s.modes {
		s.modes[m] = s.engine.Config().WithMode(sim.Mode(m))
	}
	for i, rt := range routes {
		s.requests[i].path = rt.path
		s.mux.HandleFunc(rt.path, s.dispatcher(rt, &s.requests[i].n))
	}
	return s
}

// Engine exposes the server's sweep engine (tests, stats).
func (s *Server) Engine() *exp.Engine { return s.engine }

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// dispatcher is the one handler behind every row of the route table. It
// counts the request on the row's counter and the response by its status;
// in between, dispatch runs the row.
func (s *Server) dispatcher(rt route, requests *atomic.Uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		rw := &statusWriter{ResponseWriter: w}
		if aerr := s.dispatch(rw, r, rt); aerr != nil && rw.code == 0 {
			writeError(rw, r, aerr) // once a response began, a failure to write it cannot be answered
		}
		if rw.code == 0 {
			rw.code = http.StatusOK // nothing was written: net/http answers an empty 200
		}
		s.responses[rw.code].Add(1)
	}
}

// dispatch runs one request through its row: method check, the protection
// layer (before any parsing, so a shed request costs nothing), the declared
// query parameters, the body limit, then either the row's plain answer or
// its parse step followed by answer. A returned error is the response.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, rt route) *apiError {
	if r.Method != rt.method {
		w.Header().Set("Allow", rt.method)
		return &apiError{Status: http.StatusMethodNotAllowed, Code: codeMethodNotAllowed,
			Message: fmt.Sprintf("%s requires %s", rt.path, rt.method)}
	}
	if rt.protected {
		if aerr := s.admit(r); aerr != nil {
			return aerr
		}
		defer s.adm.release()
	}
	opts, aerr := rt.parseOptions(r.URL.Query(), r.Header.Get("Accept"))
	if aerr != nil {
		return aerr
	}
	if _, held := r.Body.(heldBody); rt.body > 0 && !held {
		r.Body = http.MaxBytesReader(w, r.Body, rt.body)
	}
	if rt.plain != nil {
		rt.plain(s, w, r)
		return nil
	}
	calls, aerr := rt.parse(s, r, opts)
	if aerr != nil {
		return aerr
	}
	return s.answer(w, r, opts.format, calls)
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the NDJSON streaming path can
// push each row onto the wire as it completes.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// simContext derives the context a request waits under.
func (s *Server) simContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.simTimeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.simTimeout)
}

// modeConfig maps a parsed ?mode= onto the engine request's configuration:
// the base machine in that mode, which is the base itself when the request
// asks for the engine's own mode. Fast and exact results never share a cache
// entry — the memo is keyed by the full configuration, Mode included. The
// configuration is shared by every request, and the engine only reads it.
func (s *Server) modeConfig(m sim.Mode) *sim.Config { return &s.modes[m] }

// call is one engine call. It answers the document to encode.
type call func(context.Context) (stack.Document, error)

// labelled is one call of a request, as its row's parse step returns it:
// the label its errors are prefixed with (a streamed sweep's cell i is
// cellLabel(i); every other call has none), and beside it the call's
// answer once answer has detached it.
type labelled struct {
	call  call
	label string
	res   result
	ch    <-chan result // a miss's pending answer
}

// one is the calls of a row that makes one unlabelled call.
func one(c call) []labelled { return []labelled{{call: c}} }

// result is one engine call's answer.
type result struct {
	doc stack.Document
	err error
}

// memoOnly is the context of a call's memo-only attempt, which never
// blocks: neither the request's deadline nor its cancellation applies.
var memoOnly = exp.MemoOnly(context.Background())

// detached starts one engine call. A call the engine's memo holds whole is
// answered at once, on the caller's goroutine under exp.MemoOnly, with a
// nil channel: it waits for nothing, so it cannot time out and needs no
// deadline. Any other call runs under a context of its own and answers on
// the returned channel, so whoever waits for it may give up (see wait)
// while it keeps running in the background and lands in the engine's memo —
// deterministic work is never wasted, and a retry of the same request
// becomes a cache hit. Background completion is still bounded by the
// engine's worker pool and the simulator's MaxCycles safety net. This is
// the one place a request's simulations leave the request's lifetime.
func detached(c call) (result, <-chan result) {
	if doc, err := c(memoOnly); !errors.Is(err, exp.ErrNotMemoized) {
		return result{doc, err}, nil
	}
	ch := make(chan result, 1)
	go func() {
		doc, err := c(context.Background())
		ch <- result{doc, err}
	}()
	return result{}, ch
}

// wait receives a detached call's answer. One already answered is returned
// even when ctx has ended; otherwise ctx's end answers ctx.Err() (504 on
// the deadline, 408 when the client went away) and leaves the call running.
func wait(ctx context.Context, ch <-chan result) (stack.Document, error) {
	if len(ch) == 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case r := <-ch:
			return r.doc, r.err
		}
	}
	r := <-ch
	return r.doc, r.err
}

// encodeFailed is the 500 answering a document the encoder refused.
func encodeFailed(f stack.Format, err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: codeEncodeFailed,
		Message: fmt.Sprintf("encoding the %s report: %v", f, err)}
}

// cellsCall is the engine call of the aggregate endpoints: cells in one
// deduplicated pass, in opts.mode, answering one stack row per cell.
func (s *Server) cellsCall(opts requestOptions, cells ...exp.Cell) call {
	cfg := s.modeConfig(opts.mode)
	return func(ctx context.Context) (stack.Document, error) {
		reqs := make([]exp.Request, len(cells))
		for i, c := range cells {
			reqs[i] = exp.Request{Cell: c, Config: cfg}
		}
		outs, err := s.engine.Do(ctx, reqs)
		if err != nil {
			return nil, err
		}
		bars := make(stack.Bars, len(outs))
		for i, out := range outs {
			bars[i] = stack.Bar{Label: out.Bench.FullName(), Stack: out.Stack}
		}
		return bars, nil
	}
}

// seriesCall is the engine call of the time-resolved endpoints: cell split
// into count intervals. The aggregate outcome and its sequential reference
// share the aggregate endpoints' cache; the interval series has its own
// memo keyed by (cell, count).
func (s *Server) seriesCall(opts requestOptions, cell exp.Cell, count int) call {
	req := exp.Request{Cell: cell, Config: s.modeConfig(opts.mode)}
	return func(ctx context.Context) (stack.Document, error) {
		out, err := s.engine.MeasureIntervals(ctx, req, count)
		return out.Series, err
	}
}

// answer is the tail of every simulating row, after its parse step: it
// writes the calls' documents in order, in the negotiated format f. Every
// call is detached, and the calls the memo misses wait under the request's
// one simulation deadline, built only when a call misses. Documents
// already answered are written together and flushed onto the wire only
// when the handler must wait for the next one, so a large streamed sweep
// starts answering with its first completed rows, and a timeout still
// leaves the finished work in the memo. A failure — a call's error, or a
// document the encoder refuses (it renders a whole body before writing any
// of it) — carries the call's label. Before anything is written it is the
// normal error response; after rows are on the wire the status is already
// 200, so the envelope becomes the terminating line of the stream — NDJSON
// consumers must treat a line with an "error" key as a failed tail. Only a
// streamed sweep makes more than one call; a reply of one document carries
// its Content-Length, which its one Write gives (lengthWriter), so a reader
// of it (a fleet hop's ReadReply) sizes its buffer exactly.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, f stack.Format, calls []labelled) *apiError {
	missed := false
	for i := range calls {
		c := &calls[i]
		c.res, c.ch = detached(c.call)
		missed = missed || c.ch != nil
	}
	ctx := r.Context()
	if missed {
		var cancel context.CancelFunc
		ctx, cancel = s.simContext(r)
		defer cancel()
	}
	flusher, _ := w.(http.Flusher)
	out := io.Writer(w)
	if len(calls) == 1 {
		out = lengthWriter{w}
	}
	wrote := false
	for i := range calls {
		c := &calls[i]
		if c.ch != nil {
			if len(c.ch) == 0 && wrote && flusher != nil {
				flusher.Flush()
			}
			c.res.doc, c.res.err = wait(ctx, c.ch)
		}
		var ae *apiError
		if c.res.err != nil {
			ae = s.simAPIError(c.res.err)
		} else {
			if !wrote {
				w.Header().Set("Content-Type", f.ContentType())
			}
			err := stack.EncodeDocument(out, f, c.res.doc)
			if err == nil {
				wrote = true
				continue
			}
			ae = encodeFailed(f, err)
		}
		ae.within(c.label)
		if !wrote {
			return ae
		}
		json.NewEncoder(w).Encode(ae.envelope())
		return nil
	}
	return nil
}

// lengthWriter announces a reply's length from its first Write, which
// stack.EncodeDocument makes the reply's whole body.
type lengthWriter struct{ http.ResponseWriter }

func (w lengthWriter) Write(p []byte) (int, error) {
	w.Header().Set("Content-Length", strconv.Itoa(len(p)))
	return w.ResponseWriter.Write(p)
}

// healthz serves GET /healthz.
func healthz(s *Server, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Serve runs h on l until ctx is canceled, then shuts down gracefully:
// in-flight requests get up to drain to finish before connections are
// forced closed. A clean shutdown returns nil.
func Serve(ctx context.Context, l net.Listener, h http.Handler, drain time.Duration) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, drain)
		defer cancel()
	}
	err := srv.Shutdown(sctx)
	<-errc // srv.Serve has returned http.ErrServerClosed
	return err
}
