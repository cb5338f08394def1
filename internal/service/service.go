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
//	POST /v1/whatif       {"bench":"...","threads":N[,"cores":M]
//	                       [,"interventions":["halve_lock_hold",...]]}
//	                      (or "spec" instead of "bench", like /v1/sweep)
//	GET  /v1/benchmarks   registered benchmark analogues
//	GET  /healthz         liveness probe
//	GET  /metrics         request counts, cache traffic, in-flight sims
//
// /v1/stack/intervals (and "intervals" on /v1/workloads/analyze) serves the
// time-resolved form of a stack: the run divided into K equal slices of its
// committed trace operations, each slice with its own exact integer-cycle
// component breakdown (the slices sum to the aggregate; see
// internal/stack.TimeSeries). The SVG format draws a stacked timeline
// instead of the aggregate bar chart.
//
// Every simulating endpoint above that documents ?mode= accepts the
// simulation fidelity: "exact" (the default) simulates every LLC set and
// memory access in full detail and is byte-identical run to run, while
// "fast" simulates only the deterministic 1-in-2^sim.Config.FastSetShift
// subset of LLC sets, extrapolates the rest, and answers several times
// faster with its deviation from exact mode bounded by sim.FastErrorBounds
// (pinned in CI). On /v1/sweep the mode applies to every cell in the batch.
// Fast and exact results never share a cache entry — the memo keys on the
// full machine configuration, mode included — and /metrics splits
// speedupd_sim_cell_runs_total into _exact_total and _fast_total so
// operators can see which fidelity is paying the simulation bill. An
// unknown mode is a 400 invalid_argument like any other malformed value.
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
// thread sweep — powers of two up to max_threads (default 16, bounds
// [3,64]) — and reports deterministic Amdahl and USL fits, the
// diminishing-returns point N*, a linear/saturated/negative classification,
// a cross-check of the fitted serial fraction against the stack's
// serialization components, and ranked spec-field recommendations. The SVG
// format draws the measured sweep with both fitted curves overlaid.
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
// the serving discipline — rows are flushed in declared order as cells
// complete, so a large batch starts answering with its first finished cells
// instead of buffering the whole sweep; a failure after rows are on the wire
// terminates the stream with an error-envelope line.
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
// threads, cores) identity, bounded by Options.CacheCells — and concurrent
// identical requests collapse onto a single simulation (the engine's
// singleflight protocol), so a thundering herd asking for the same stack
// costs one simulation; an inline spec identical to a registered benchmark
// (or to another request's spec, whatever its name) hits the same cache
// entry. Simulation parallelism across all requests is bounded by the
// engine's worker pool; requests beyond it queue on the pool rather than
// piling onto the CPUs.
//
// One request path: every simulating handler is its parse step followed by
// serve — the engine call run by detached (under a context of its own, so a
// request that exceeds Options.SimTimeout or hangs up gets its error
// promptly while the work finishes in the background and lands in the memo,
// where a retry finds it), one error mapping, the negotiated Content-Type,
// the encoder. The streamed NDJSON sweep runs each cell through the same
// detached.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Options configures a Server. The zero value serves the paper's default
// machine with sensible production bounds.
type Options struct {
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// CacheCells bounds the LRU result cache, in cells (default 4096;
	// negative disables the bound).
	CacheCells int
	// SimTimeout caps how long one request waits for its simulations
	// (default 2m; negative disables). Exceeding it answers 504; the
	// simulations detach and finish in the background, filling the cache
	// so a retry is a hit.
	SimTimeout time.Duration
	// MaxSweepCells caps the batch size of POST /v1/sweep (default 1024).
	MaxSweepCells int
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
	// but still count against MaxInFlight.
	RateLimit float64
	// RateBurst is the token-bucket depth when RateLimit is set
	// (default: ceil(RateLimit), minimum 1).
	RateBurst int
	// Config is the machine configuration (default sim.Default()).
	Config *sim.Config
	// Engine, if set, overrides Workers/CacheCells/Config with a
	// caller-owned engine (tests, embedding).
	Engine *exp.Engine
}

const (
	defaultCacheCells    = 4096
	defaultSimTimeout    = 2 * time.Minute
	defaultMaxSweepCells = 1024
	// defaultIntervals is the slice count when an interval request does not
	// name one; maxIntervals caps what one request may ask for (each
	// interval snapshot copies per-thread counters, so the cap bounds the
	// response and cache-entry size).
	defaultIntervals = 32
	maxIntervals     = 512
	// defaultAdviseThreads is the advisor's sweep top when the request does
	// not name one: the paper's 16-thread machine.
	defaultAdviseThreads = 16
)

// Server is the speedupd HTTP service.
type Server struct {
	engine        *exp.Engine
	simTimeout    time.Duration
	maxSweepCells int
	mux           *http.ServeMux
	started       time.Time
	adm           *admission
	limiter       *rateLimiter

	mu          sync.Mutex
	requests    map[string]uint64 // by route
	responses   map[int]uint64    // by status code
	shed        uint64            // admission rejections (429 overloaded)
	rateLimited uint64            // rate-limit rejections (429 rate_limited)
}

// New assembles a Server from the options.
func New(opts Options) *Server {
	e := opts.Engine
	if e == nil {
		cfg := sim.Default()
		if opts.Config != nil {
			cfg = *opts.Config
		}
		cache := opts.CacheCells
		if cache == 0 {
			cache = defaultCacheCells
		}
		eopts := []exp.Option{exp.WithCellMemoLimit(cache)}
		if opts.Workers > 0 {
			eopts = append(eopts, exp.WithWorkers(opts.Workers))
		}
		e = exp.NewEngine(cfg, eopts...)
	}
	st := opts.SimTimeout
	if st == 0 {
		st = defaultSimTimeout
	}
	if st < 0 {
		st = 0
	}
	maxCells := opts.MaxSweepCells
	if maxCells <= 0 {
		maxCells = defaultMaxSweepCells
	}
	s := &Server{
		engine:        e,
		simTimeout:    st,
		maxSweepCells: maxCells,
		mux:           http.NewServeMux(),
		started:       time.Now(),
		requests:      make(map[string]uint64),
		responses:     make(map[int]uint64),
		adm:           newAdmission(opts.MaxInFlight),
		limiter:       newRateLimiter(opts.RateLimit, opts.RateBurst),
	}
	// The simulating endpoints sit behind the protection layer; the cheap
	// introspection endpoints stay reachable even when the server is shedding.
	s.route("/v1/stack", http.MethodGet, s.protect(s.handleStack))
	s.route("/v1/stack/intervals", http.MethodGet, s.protect(s.handleStackIntervals))
	s.route("/v1/sweep", http.MethodPost, s.protect(s.handleSweep))
	s.route("/v1/workloads/analyze", http.MethodPost, s.protect(s.handleAnalyze))
	s.route("/v1/workloads/validate", http.MethodPost, s.handleValidate)
	s.route("/v1/traces/analyze", http.MethodPost, s.protect(s.handleTraceAnalyze))
	s.route("/v1/advise", http.MethodGet, s.protect(s.handleAdvise))
	s.route("/v1/whatif", http.MethodPost, s.protect(s.handleWhatIf))
	s.route("/v1/benchmarks", http.MethodGet, s.handleBenchmarks)
	s.route("/healthz", http.MethodGet, s.handleHealthz)
	s.route("/metrics", http.MethodGet, s.handleMetrics)
	return s
}

// Engine exposes the server's sweep engine (tests, stats).
func (s *Server) Engine() *exp.Engine { return s.engine }

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers an instrumented handler: it counts the request, enforces
// the method, and records the response status.
func (s *Server) route(path, method string, h func(http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.requests[path]++
		s.mu.Unlock()
		rw := &statusWriter{ResponseWriter: w}
		if r.Method != method {
			rw.Header().Set("Allow", method)
			writeError(rw, r, &apiError{Status: http.StatusMethodNotAllowed, Code: codeMethodNotAllowed,
				Message: fmt.Sprintf("%s requires %s", path, method)})
		} else {
			h(rw, r)
		}
		s.mu.Lock()
		s.responses[rw.status()]++
		s.mu.Unlock()
	})
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

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Flush forwards to the underlying writer so the NDJSON streaming path can
// push each row onto the wire as it completes.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// cellRequest is one cell of a POST body: either a registered benchmark
// named by bench, or an inline workload spec. Intervals asks for the
// time-resolved decomposition; it is honored by /v1/workloads/analyze and
// rejected in /v1/sweep batches (sweeps return aggregate rows).
type cellRequest struct {
	Bench     string          `json:"bench,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Threads   int             `json:"threads"`
	Cores     int             `json:"cores,omitempty"`
	Intervals int             `json:"intervals,omitempty"`
}

// decodeBody strictly decodes one JSON request body: size-capped, unknown
// fields rejected, trailing data rejected — the same contract ParseSpec
// applies to the spec object itself, so every front end agrees on what a
// valid input is.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), v)
}

// decodeStrict is decodeBody's transport-free core: the exact decoding
// contract applied to every POST body, factored out so the fuzz suites can
// drive it on raw bytes without an HTTP round trip.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the request object")
	}
	return nil
}

// buildCell resolves one body cell into an engine cell.
func buildCell(c cellRequest) (exp.Cell, error) {
	if len(c.Spec) > 0 {
		if c.Bench != "" {
			return exp.Cell{}, fmt.Errorf("give bench or spec, not both")
		}
		spec, err := workload.ParseSpec(c.Spec)
		if err != nil {
			return exp.Cell{}, err
		}
		return checkCellBounds(exp.Cell{Spec: &spec, Threads: c.Threads, Cores: c.Cores})
	}
	return checkCell(exp.Cell{Bench: c.Bench, Threads: c.Threads, Cores: c.Cores})
}

// simContext derives the context a request waits under.
func (s *Server) simContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.simTimeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.simTimeout)
}

// modeConfig maps a parsed ?mode= onto the engine request's configuration
// override: nil when the request asks for the engine's own mode (the common
// case, which keeps the base-machine memo key), otherwise the base machine
// re-moded. Fast and exact results never share a cache entry — the memo is
// keyed by the full configuration, Mode included.
func (s *Server) modeConfig(m sim.Mode) *sim.Config {
	cfg := s.engine.Config()
	if m == cfg.Mode {
		return nil
	}
	cfg = cfg.WithMode(m)
	return &cfg
}

// detached runs one engine call under a context of its own and waits for it
// under ctx. When ctx ends first the caller gets ctx.Err() promptly (504 on
// the deadline, 408 when the client went away) while the call keeps running
// in the background and lands in the engine's memo — deterministic work is
// never wasted, and a retry of the same request becomes a cache hit.
// Background completion is still bounded by the engine's worker pool and
// the simulator's MaxCycles safety net. This is the one place a request's
// simulations leave the request's lifetime.
func detached[T any](ctx context.Context, call func(context.Context) (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := call(context.Background())
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// serve is the tail of every simulating endpoint, after its parse step: the
// engine call, detached, under the request's simulation deadline; one error
// mapping; the negotiated Content-Type; the encoder.
func serve[T any](s *Server, w http.ResponseWriter, r *http.Request, f stack.Format,
	call func(context.Context) (T, error), encode func(io.Writer, stack.Format, T) error) {
	ctx, cancel := s.simContext(r)
	defer cancel()
	v, err := detached(ctx, call)
	if err != nil {
		writeError(w, r, s.simAPIError(err))
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	encode(w, f, v)
}

// cellsCall is the engine call of the aggregate endpoints: cells in one
// deduplicated pass, in opts.mode.
func (s *Server) cellsCall(opts requestOptions, cells ...exp.Cell) func(context.Context) ([]exp.Outcome, error) {
	cfg := s.modeConfig(opts.mode)
	return func(ctx context.Context) ([]exp.Outcome, error) {
		reqs := make([]exp.Request, len(cells))
		for i, c := range cells {
			reqs[i] = exp.Request{Cell: c, Config: cfg}
		}
		return s.engine.Do(ctx, reqs)
	}
}

// serveCells answers an aggregate request: one stack row per cell.
func (s *Server) serveCells(w http.ResponseWriter, r *http.Request, opts requestOptions, cells ...exp.Cell) {
	serve(s, w, r, opts.format, s.cellsCall(opts, cells...),
		func(w io.Writer, f stack.Format, outs []exp.Outcome) error {
			bars := make([]stack.Bar, len(outs))
			for i, out := range outs {
				bars[i] = outcomeBar(out)
			}
			return stack.Encode(w, f, bars)
		})
}

// serveSeries answers a time-resolved request: cell split into count
// intervals.
func (s *Server) serveSeries(w http.ResponseWriter, r *http.Request, opts requestOptions, cell exp.Cell, count int) {
	req := exp.Request{Cell: cell, Config: s.modeConfig(opts.mode)}
	serve(s, w, r, opts.format,
		func(ctx context.Context) (exp.IntervalOutcome, error) {
			return s.engine.MeasureIntervals(ctx, req, count)
		},
		func(w io.Writer, f stack.Format, out exp.IntervalOutcome) error {
			return stack.EncodeTimeSeries(w, f, out.Series)
		})
}

// outcomeBar is the report row source of one outcome.
func outcomeBar(out exp.Outcome) stack.Bar {
	return stack.Bar{Label: out.Bench.FullName(), Stack: out.Stack}
}

// handleStack serves GET /v1/stack: one (benchmark, threads[, cores]) cell,
// in the exact (default) or sampled fast simulation mode.
func (s *Server) handleStack(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true, cell: true, mode: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	s.serveCells(w, r, opts, opts.cell)
}

// handleStackIntervals serves GET /v1/stack/intervals: one cell's
// time-resolved speedup stack, the run split into ?intervals=K equal slices
// of its committed ops (default 32). The aggregate outcome and its
// sequential reference share /v1/stack's cache; the interval series has its
// own memo keyed by (cell, K).
func (s *Server) handleStackIntervals(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true, cell: true, intervals: true, mode: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	s.serveSeries(w, r, opts, opts.cell, opts.intervals)
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	Cells []cellRequest `json:"cells"`
}

// handleSweep serves POST /v1/sweep: a batch of cells in one engine pass,
// deduplicated against each other and the cache. ?mode=fast applies to
// every cell in the batch.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true, mode: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	var req sweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, badRequest("bad body: %v", err))
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, r, badRequest("empty cell list"))
		return
	}
	if len(req.Cells) > s.maxSweepCells {
		writeError(w, r, badRequest("%d cells exceeds the %d-cell batch limit",
			len(req.Cells), s.maxSweepCells))
		return
	}
	cells := make([]exp.Cell, len(req.Cells))
	for i, c := range req.Cells {
		// Cell indices in error prefixes are 0-based positions in the
		// declared JSON array — the contract exp.CellErrorIndexBase pins.
		if c.Intervals != 0 {
			writeError(w, r, badRequest(
				"cell %d: sweeps return aggregate stacks; use /v1/stack/intervals or /v1/workloads/analyze for a time-resolved one",
				exp.CellErrorIndexBase+i))
			return
		}
		cell, err := buildCell(c)
		if err != nil {
			ae := asAPIError(err)
			ae.Message = fmt.Sprintf("cell %d: %s", exp.CellErrorIndexBase+i, ae.Message)
			writeError(w, r, ae)
			return
		}
		cells[i] = cell
	}
	if opts.format == stack.FormatNDJSON {
		s.streamSweep(w, r, opts, cells)
		return
	}
	s.serveCells(w, r, opts, cells...)
}

// streamSweep answers an NDJSON sweep as a stream: one compact ReportRow
// line per cell, in the declared cell order, each flushed onto the wire as
// soon as that cell's result (and its predecessors') are available. Every
// cell runs as its own detached engine call under the request's one
// deadline, so large batches start answering with their first completed
// rows instead of buffering the whole sweep, and a timeout still leaves
// the finished work in the cache. A failure before the first row is the
// normal error response; after rows are on the wire the status is already
// 200, so the envelope becomes the terminating line of the stream —
// NDJSON consumers must treat a line with an "error" key as a failed tail.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, opts requestOptions, cells []exp.Cell) {
	ctx, cancel := s.simContext(r)
	defer cancel()
	type result struct {
		outs []exp.Outcome
		err  error
	}
	results := make([]chan result, len(cells))
	for i := range cells {
		results[i] = make(chan result, 1)
		go func(i int, c exp.Cell) {
			outs, err := detached(ctx, s.cellsCall(opts, c))
			results[i] <- result{outs, err}
		}(i, cells[i])
	}
	flusher, _ := w.(http.Flusher)
	wrote := false
	for i := range results {
		res := <-results[i]
		if res.err != nil {
			ae := s.simAPIError(res.err)
			ae.Message = fmt.Sprintf("cell %d: %s", exp.CellErrorIndexBase+i, ae.Message)
			if !wrote {
				writeError(w, r, ae)
				return
			}
			json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{
				Code: ae.Code, Message: ae.Message, Suggestion: ae.Suggestion}})
			return
		}
		if !wrote {
			w.Header().Set("Content-Type", stack.FormatNDJSON.ContentType())
			wrote = true
		}
		stack.EncodeRowNDJSON(w, stack.Row(outcomeBar(res.outs[0])))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleAnalyze serves POST /v1/workloads/analyze: one inline custom
// workload at a thread count, measured end-to-end. It is the
// bring-your-own-benchmark twin of GET /v1/stack and shares its cache: the
// engine keys on the spec's canonical fingerprint, so repeating a spec —
// under any name, inline or registered — is a cache hit.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true, mode: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	var req cellRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, badRequest("bad body: %v", err))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, r, badRequest("missing spec (POST {\"spec\":{...},\"threads\":N})"))
		return
	}
	if req.Bench != "" {
		writeError(w, r, badRequest("analyze takes a spec, not a bench name (use /v1/stack)"))
		return
	}
	count := 0
	if req.Intervals != 0 {
		var err error
		if count, err = parseIntervals("", req.Intervals); err != nil {
			writeError(w, r, badRequest("%v", err))
			return
		}
	}
	cell, err := buildCell(req)
	if err != nil {
		writeError(w, r, asAPIError(err))
		return
	}
	if count > 0 {
		// Time-resolved analysis of the custom spec, sharing /v1/stack/
		// intervals' memo and the aggregate's fingerprint-keyed cache.
		s.serveSeries(w, r, opts, cell, count)
		return
	}
	s.serveCells(w, r, opts, cell)
}

// validateResponse is the POST /v1/workloads/validate answer.
type validateResponse struct {
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
	// Fingerprint is the canonical workload identity (the cache key) and
	// Canonical the normalized spec it hashes; both only when valid.
	Fingerprint string         `json:"fingerprint,omitempty"`
	Name        string         `json:"name,omitempty"`
	Canonical   *workload.Spec `json:"canonical,omitempty"`
}

// handleValidate serves POST /v1/workloads/validate: a dry run of the spec
// pipeline. The body is the bare workload spec JSON (the same bytes the
// speedup-stack CLI takes via -spec); nothing is simulated. A syntactically
// readable but invalid spec answers 200 with valid=false and the actionable
// validation error, so CI pipelines can lint spec files cheaply.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	if _, aerr := parseOptions(r, optionSpec{}); aerr != nil {
		writeError(w, r, aerr)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, r, badRequest("reading body: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	spec, err := workload.ParseSpec(data)
	if err != nil {
		enc.Encode(validateResponse{Valid: false, Error: err.Error()})
		return
	}
	enc.Encode(validateResponse{
		Valid:       true,
		Fingerprint: spec.Fingerprint().String(),
		Name:        workload.Benchmark{Spec: spec}.FullName(),
		Canonical:   &spec,
	})
}

// handleAdvise serves GET /v1/advise: the scaling advisor for one
// registered benchmark. The sweep's cells ride the same fingerprint-keyed
// memo as every other endpoint, so advising a benchmark that has already
// been measured reuses those runs, and repeating an advise is free.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true, advise: true, mode: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	req := exp.Request{Cell: opts.cell, Config: s.modeConfig(opts.mode)}
	serve(s, w, r, opts.format,
		func(ctx context.Context) (scaling.Advice, error) {
			return s.engine.Advise(ctx, req, opts.maxThreads)
		},
		scaling.Encode)
}

// whatifRequest is the POST /v1/whatif body: a cell (bench or inline spec,
// threads, optional cores) plus an optional list of catalog intervention
// IDs; absent means the full catalog.
type whatifRequest struct {
	Bench         string          `json:"bench,omitempty"`
	Spec          json.RawMessage `json:"spec,omitempty"`
	Threads       int             `json:"threads"`
	Cores         int             `json:"cores,omitempty"`
	Interventions []string        `json:"interventions,omitempty"`
}

// parseWhatIf resolves a decoded what-if body into an engine cell and the
// requested intervention IDs, applying the same cell bounds as every other
// endpoint plus the what-if floor (a single-threaded run has no scaling gap
// to attribute). It performs no simulation, so the fuzz suite can drive it
// on arbitrary bodies; intervention IDs are resolved here too, so unknown
// ones fail before any simulation is spent.
func parseWhatIf(req whatifRequest) (exp.Cell, []string, error) {
	cell, err := buildCell(cellRequest{Bench: req.Bench, Spec: req.Spec, Threads: req.Threads, Cores: req.Cores})
	if err != nil {
		return exp.Cell{}, nil, err
	}
	if req.Threads < exp.MinWhatIfThreads {
		return exp.Cell{}, nil, badRequest("what-if needs threads >= %d (a single-threaded run has no scaling gap), got %d",
			exp.MinWhatIfThreads, req.Threads)
	}
	for _, id := range req.Interventions {
		if _, err := whatif.ByID(id); err != nil {
			return exp.Cell{}, nil, err
		}
	}
	return cell, req.Interventions, nil
}

// handleWhatIf serves POST /v1/whatif: the causal what-if report for one
// cell — each applicable catalog intervention predicted by re-evaluating
// the estimator with its components scaled, validated by re-simulating the
// mutated spec/machine, and ranked by predicted gain. Everything rides the
// fingerprint-keyed memo, so repeating a request simulates nothing new.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	var req whatifRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, badRequest("bad body: %v", err))
		return
	}
	cell, ids, err := parseWhatIf(req)
	if err != nil {
		writeError(w, r, asAPIError(err))
		return
	}
	serve(s, w, r, opts.format,
		func(ctx context.Context) (whatif.Report, error) {
			return s.engine.WhatIf(ctx, exp.Request{Cell: cell}, ids)
		},
		whatif.Encode)
}

// handleBenchmarks serves GET /v1/benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if _, aerr := parseOptions(r, optionSpec{}); aerr != nil {
		writeError(w, r, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string][]string{"benchmarks": workload.Names()})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves GET /metrics in Prometheus text exposition format:
// per-route request counts, per-code response counts, and the engine's
// simulation/cache counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	s.mu.Lock()
	routes := make([]string, 0, len(s.requests))
	for p := range s.requests {
		routes = append(routes, p)
	}
	sort.Strings(routes)
	codes := make([]int, 0, len(s.responses))
	for c := range s.responses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, p := range routes {
		fmt.Fprintf(w, "speedupd_requests_total{path=%q} %d\n", p, s.requests[p])
	}
	for _, c := range codes {
		fmt.Fprintf(w, "speedupd_responses_total{code=\"%d\"} %d\n", c, s.responses[c])
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "speedupd_sim_cell_runs_total %d\n", st.CellRuns)
	// Sampled (fast-mode) vs exact cell runs, so operators can see which
	// fidelity is paying the simulation bill. The two always sum to
	// speedupd_sim_cell_runs_total.
	fmt.Fprintf(w, "speedupd_sim_cell_runs_exact_total %d\n", st.CellRuns-st.FastCellRuns)
	fmt.Fprintf(w, "speedupd_sim_cell_runs_fast_total %d\n", st.FastCellRuns)
	fmt.Fprintf(w, "speedupd_sim_cell_memo_hits_total %d\n", st.CellHits)
	fmt.Fprintf(w, "speedupd_sim_seq_runs_total %d\n", st.SeqRuns)
	fmt.Fprintf(w, "speedupd_sim_seq_memo_hits_total %d\n", st.SeqHits)
	fmt.Fprintf(w, "speedupd_sim_cell_evictions_total %d\n", st.CellEvictions)
	// Cache occupancy next to the churn counters: how full the cell memo is
	// against its configured bound (limit 0 = unbounded), so operators can
	// size CacheCells from live data instead of eviction archaeology.
	fmt.Fprintf(w, "speedupd_sim_cell_memo_entries %d\n", st.CellMemoEntries)
	fmt.Fprintf(w, "speedupd_sim_cell_memo_limit %d\n", st.CellMemoLimit)
	fmt.Fprintf(w, "speedupd_sim_interval_runs_total %d\n", st.IntervalRuns)
	fmt.Fprintf(w, "speedupd_sim_interval_memo_hits_total %d\n", st.IntervalHits)
	fmt.Fprintf(w, "speedupd_sim_interval_evictions_total %d\n", st.IntervalEvictions)
	fmt.Fprintf(w, "speedupd_sim_inflight %d\n", st.InFlight)
	// Protection-layer counters: requests shed at the admission gate, shed
	// by the per-client rate limiter, and the currently admitted count.
	s.mu.Lock()
	shed, limited := s.shed, s.rateLimited
	s.mu.Unlock()
	fmt.Fprintf(w, "speedupd_throttled_total{reason=\"overloaded\"} %d\n", shed)
	fmt.Fprintf(w, "speedupd_throttled_total{reason=\"rate_limited\"} %d\n", limited)
	fmt.Fprintf(w, "speedupd_admitted_inflight %d\n", s.adm.inflight())
	hitRate := 0.0
	if lookups := st.CellRuns + st.CellHits; lookups > 0 {
		hitRate = float64(st.CellHits) / float64(lookups)
	}
	fmt.Fprintf(w, "speedupd_cache_hit_rate %.4f\n", hitRate)
	// Simulator throughput: cumulative trace ops executed by the engine's
	// simulations, and the lifetime average rate, so operators can see
	// whether the simulator itself (rather than caching) is the bottleneck.
	fmt.Fprintf(w, "speedupd_simulated_ops_total %d\n", st.SimulatedOps)
	opsPerSec := 0.0
	if up := time.Since(s.started).Seconds(); up > 0 {
		opsPerSec = float64(st.SimulatedOps) / up
	}
	fmt.Fprintf(w, "speedupd_simulated_ops_per_second %.1f\n", opsPerSec)
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
