package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"repro/internal/exp"
	"repro/internal/sizedio"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workload"
)

// identity says where a row's workload identity lives — what a fleet hashes
// to find the request's home node.
type identity int

const (
	// identNone: not workload-keyed; served wherever it arrives.
	identNone identity = iota
	// identQueryBench: the ?bench= parameter names a registered benchmark.
	identQueryBench
	// identBodyCell: the JSON body is one cell (bench or inline spec).
	identBodyCell
	// identBodyCells: the JSON body lists cells, each with its own identity.
	identBodyCells
	// identTraceHeader: the body is a binary trace; its header carries the
	// content identity, so the payload is never decoded to route it.
	identTraceHeader
)

// Wire bounds. MaxTraceBytes covers a 16-thread trace of the heaviest
// registered analogue (~10MB) with headroom while keeping a hostile upload
// from buffering without bound; MaxSweepCells caps one POST /v1/sweep batch.
// Both are enforced here and honored by Identify, so a routing layer in
// front of the service can neither exceed nor bypass them. MaxReplyBytes
// bounds the reply a reader buffers (the client, a fleet hop; both read
// through ReadReply), an order of magnitude above the largest one the table
// produces (a 1,024-cell SVG sweep).
const (
	maxJSONBytes  = 1 << 20
	MaxTraceBytes = 32 << 20
	MaxSweepCells = 1024
	MaxReplyBytes = 16 << 20
)

// ReadReply reads a whole reply body of at most MaxReplyBytes. A longer
// body is an error, never a truncated reply. declared is the length the
// reply announces (http.Response.ContentLength, -1 when unknown); it sizes
// the buffer as sizedio.ReadAll does for every body this package reads, so
// a reply that keeps its word ends in a buffer of its own size, which a
// cache of replies (the fleet's) retains as is, and costs one allocation up
// to 64 KiB and at most about 2.4 times its size past that; a chunked
// reply, of unknown length, grows as io.ReadAll's would.
func ReadReply(body io.Reader, declared int64) ([]byte, error) {
	data, err := sizedio.ReadAll(body, declared, MaxReplyBytes)
	if errors.Is(err, sizedio.ErrTooLong) {
		return nil, fmt.Errorf("reply exceeds %d bytes", MaxReplyBytes)
	}
	return data, err
}

// route is one row of the table.
type route struct {
	method, path string
	// params lists the query parameters the row takes beyond format and
	// mode, in judging order (options.go); unchecked rows (/healthz,
	// /metrics) ignore whatever query a load balancer or scraper appends.
	params    []string
	unchecked bool
	// protected rows are the simulating ones: they sit behind the rate
	// limiter and the admission gate, and take ?format= and ?mode=; the
	// cheap introspection rows stay reachable while the server sheds.
	protected bool
	// identity is where the workload identity lives; body bounds the
	// request body (0: the route takes none).
	identity identity
	body     int64
	// parse turns a well-formed request into its engine calls, each with
	// the label its errors carry; the dispatcher hands them to answer, the
	// one tail. plain answers a row that has no document (introspection,
	// dry runs) directly.
	parse func(*Server, *http.Request, requestOptions) ([]labelled, *apiError)
	plain func(*Server, http.ResponseWriter, *http.Request)
}

// routes is the route table (see the package comment): nothing else spells
// a route. New registers the rows, the dispatcher runs them, Identify reads
// them, and the tests range over them.
var routes = []route{
	{method: http.MethodGet, path: "/v1/stack", params: cellParams,
		protected: true, identity: identQueryBench, parse: parseStack},
	{method: http.MethodGet, path: "/v1/stack/intervals", params: intervalsParams,
		protected: true, identity: identQueryBench, parse: parseStackIntervals},
	{method: http.MethodPost, path: "/v1/sweep",
		protected: true, identity: identBodyCells, body: maxJSONBytes, parse: parseSweep},
	{method: http.MethodPost, path: "/v1/workloads/analyze",
		protected: true, identity: identBodyCell, body: maxJSONBytes, parse: parseAnalyze},
	{method: http.MethodPost, path: "/v1/workloads/validate", body: maxJSONBytes, plain: validate},
	{method: http.MethodPost, path: "/v1/traces/analyze", params: traceParams,
		protected: true, identity: identTraceHeader, body: MaxTraceBytes, parse: parseTraceAnalyze},
	{method: http.MethodGet, path: "/v1/advise", params: adviseParams,
		protected: true, identity: identQueryBench, parse: parseAdvise},
	{method: http.MethodPost, path: "/v1/whatif",
		protected: true, identity: identBodyCell, body: maxJSONBytes, parse: parseWhatIfCall},
	{method: http.MethodGet, path: "/v1/benchmarks", plain: benchmarks},
	{method: http.MethodGet, path: "/healthz", unchecked: true, plain: healthz},
	{method: http.MethodGet, path: "/metrics", unchecked: true, plain: metrics},
}

// wireCell is a cell as every POST body spells it: either a registered
// benchmark named by bench, or an inline workload spec, at a thread and an
// optional core count.
type wireCell struct {
	Bench   string          `json:"bench,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Threads int             `json:"threads"`
	Cores   int             `json:"cores,omitempty"`
}

// cellRequest is one cell of a /v1/sweep or /v1/workloads/analyze body.
// Intervals asks for the time-resolved decomposition; it is honored by
// /v1/workloads/analyze and rejected in /v1/sweep batches (sweeps return
// aggregate rows).
type cellRequest struct {
	wireCell
	Intervals int `json:"intervals,omitempty"`
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	Cells []cellRequest `json:"cells"`
}

// decodeStrict decodes one JSON request body strictly: unknown fields
// rejected, trailing data rejected — the same contract ParseSpec applies to
// the spec object itself, so every front end agrees on what a valid input
// is. The dispatcher has already capped the body's size.
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

// buildCell parses one body cell into an engine cell and has the engine
// judge it (checkCell).
func buildCell(c wireCell) (exp.Cell, error) {
	cell := exp.Cell{Bench: c.Bench, Threads: c.Threads, Cores: c.Cores}
	if len(c.Spec) > 0 {
		spec, err := workload.ParseSpec(c.Spec)
		if err != nil {
			return exp.Cell{}, err
		}
		cell.Spec = &spec
	}
	return checkCell(cell)
}

// parseStack is GET /v1/stack: one (benchmark, threads[, cores]) cell, in
// the exact (default) or sampled fast simulation mode.
func parseStack(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	return one(s.cellsCall(opts, opts.cell)), nil
}

// parseStackIntervals is GET /v1/stack/intervals: one cell's time-resolved
// speedup stack, the run split into ?intervals=K equal slices of its
// committed ops (default 32).
func parseStackIntervals(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	return one(s.seriesCall(opts, opts.cell, opts.intervals)), nil
}

// parseSweep is POST /v1/sweep: a batch of cells, ?mode= applying to
// every one. In the buffered formats it is one engine pass, deduplicated
// within the batch and against the memo, answering one document; in ndjson
// each cell is a call of its own, labelled with its cell, so the rows
// stream out in declared order as their cells complete.
func parseSweep(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	var req sweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, badRequest("bad body: %v", err)
	}
	if len(req.Cells) == 0 {
		return nil, badRequest("empty cell list")
	}
	if len(req.Cells) > MaxSweepCells {
		return nil, badRequest("%d cells exceeds the %d-cell batch limit", len(req.Cells), MaxSweepCells)
	}
	cells := make([]exp.Cell, len(req.Cells))
	for i, c := range req.Cells {
		if c.Intervals != 0 {
			return nil, badRequest("sweeps return aggregate stacks; " +
				"use /v1/stack/intervals or /v1/workloads/analyze for a time-resolved one").within(cellLabel(i))
		}
		cell, err := buildCell(c.wireCell)
		if err != nil {
			return nil, asAPIError(err).within(cellLabel(i))
		}
		cells[i] = cell
	}
	if opts.format != stack.FormatNDJSON {
		return one(s.cellsCall(opts, cells...)), nil
	}
	calls := make([]labelled, len(cells))
	for i, c := range cells {
		calls[i] = labelled{call: s.cellsCall(opts, c), label: cellLabel(i)}
	}
	return calls, nil
}

// cellLabel labels what concerns a sweep's cell i, its 0-based position in
// the declared cells: the prefix of the cell's refusal and of its failure.
func cellLabel(i int) string { return "cell " + strconv.Itoa(i) }

// parseAnalyze is POST /v1/workloads/analyze: one inline custom workload at
// a thread count, measured end-to-end. It is the bring-your-own-benchmark
// twin of GET /v1/stack and shares its cache: the engine keys on the spec's
// canonical fingerprint, so repeating a spec — under any name, inline or
// registered — is a cache hit. A nonzero "intervals" selects the
// time-resolved form; the engine judges its range.
func parseAnalyze(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	var req cellRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, badRequest("bad body: %v", err)
	}
	if len(req.Spec) == 0 {
		return nil, badRequest("missing spec (POST {\"spec\":{...},\"threads\":N})")
	}
	if req.Bench != "" {
		return nil, badRequest("analyze takes a spec, not a bench name (use /v1/stack)")
	}
	cell, err := buildCell(req.wireCell)
	if err != nil {
		return nil, asAPIError(err)
	}
	if req.Intervals != 0 {
		return one(s.seriesCall(opts, cell, req.Intervals)), nil
	}
	return one(s.cellsCall(opts, cell)), nil
}

// parseTraceAnalyze is POST /v1/traces/analyze: the body is a recorded
// binary op trace (the speedup-stack -record format, internal/trace),
// decoded into a replay spec and measured like any other cell. The trace
// replays at its recorded thread count — threads is not a parameter — and
// cores defaults to that count like everywhere else. The cell rides the
// engine's fingerprint-keyed memo under the trace's content hash, so
// re-uploading the same trace (whatever its label) performs zero additional
// simulations. The trace is decoded as it arrives (trace.DecodeFrom), or in
// place when a routing layer already holds the body (Identify).
func parseTraceAnalyze(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	var td *trace.Data
	var err error
	if b, ok := r.Body.(heldBody); ok {
		td, err = trace.Decode(b.data)
	} else {
		td, err = trace.DecodeFrom(r.Body)
	}
	var re *trace.ReadError
	if errors.As(err, &re) {
		return nil, badRequest("reading body: %v", re.Err)
	}
	if err != nil {
		return nil, badRequest("bad trace: %v", err)
	}
	spec := workload.TraceSpec(td)
	cell, err := checkCell(exp.Cell{Spec: &spec, Threads: spec.TraceThreads(), Cores: opts.cell.Cores})
	if err != nil {
		return nil, asAPIError(err)
	}
	return one(s.cellsCall(opts, cell)), nil
}

// parseAdvise is GET /v1/advise: the scaling advisor for one registered
// benchmark. The sweep's cells ride the same fingerprint-keyed memo as
// every other endpoint, so advising a benchmark that has already been
// measured reuses those runs, and repeating an advise is free.
func parseAdvise(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	req := exp.Request{Cell: opts.cell, Config: s.modeConfig(opts.mode)}
	return one(func(ctx context.Context) (stack.Document, error) {
		return s.engine.Advise(ctx, req, opts.maxThreads)
	}), nil
}

// whatifRequest is the POST /v1/whatif body: a cell plus an optional list
// of catalog intervention IDs; absent means the full catalog.
type whatifRequest struct {
	wireCell
	Interventions []string `json:"interventions,omitempty"`
}

// parseWhatIfCall is POST /v1/whatif: the causal what-if report for one
// cell — each applicable catalog intervention predicted by re-evaluating
// the estimator with its components scaled, validated by re-simulating the
// mutated spec/machine, and ranked by predicted gain. Everything rides the
// fingerprint-keyed memo, so repeating a request simulates nothing new. The
// what-if floor and the intervention IDs are the engine's to judge:
// Engine.WhatIf refuses both before it simulates anything.
func parseWhatIfCall(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	var req whatifRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, badRequest("bad body: %v", err)
	}
	cell, err := buildCell(req.wireCell)
	if err != nil {
		return nil, asAPIError(err)
	}
	return one(func(ctx context.Context) (stack.Document, error) {
		return s.engine.WhatIf(ctx, exp.Request{Cell: cell, Config: s.modeConfig(opts.mode)}, req.Interventions)
	}), nil
}

// writeJSON answers with status and one indented JSON object: a plain row
// or an error envelope.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ValidateResponse is the POST /v1/workloads/validate answer.
type ValidateResponse struct {
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
	// Fingerprint is the canonical workload identity (the cache key) and
	// Canonical the normalized spec it hashes; both only when valid.
	Fingerprint string         `json:"fingerprint,omitempty"`
	Name        string         `json:"name,omitempty"`
	Canonical   *workload.Spec `json:"canonical,omitempty"`
}

// validate serves POST /v1/workloads/validate: a dry run of the spec
// pipeline. The body is the bare workload spec JSON (the same bytes the
// speedup-stack CLI takes via -spec); nothing is simulated. A syntactically
// readable but invalid spec answers 200 with valid=false and the actionable
// validation error, so CI pipelines can lint spec files cheaply.
func validate(s *Server, w http.ResponseWriter, r *http.Request) {
	data, err := sizedio.ReadAll(r.Body, r.ContentLength, maxJSONBytes)
	if err != nil {
		writeError(w, r, badRequest("reading body: %v", err))
		return
	}
	spec, err := workload.ParseSpec(data)
	if err != nil {
		writeJSON(w, http.StatusOK, ValidateResponse{Valid: false, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ValidateResponse{
		Valid:       true,
		Fingerprint: spec.Fingerprint().String(),
		Name:        workload.Benchmark{Spec: spec}.FullName(),
		Canonical:   &spec,
	})
}

// benchmarks serves GET /v1/benchmarks.
func benchmarks(s *Server, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"benchmarks": workload.Names()})
}

// Identity is what a routing layer in front of the service (internal/fleet)
// needs to know about one request, read from the route table without
// simulating or fully validating anything: full validation stays with the
// node that serves the request.
type Identity struct {
	// Keys are the workload fingerprints the request is about: one for a
	// single-workload request, one per cell for a sweep. Empty when the
	// identity does not resolve cleanly (oversized or malformed body, unknown
	// benchmark, invalid spec or run shape, a batch outside its bounds): any
	// node's service then answers the canonical error.
	Keys []string
	// Body is the buffered request body; r.Body has been reset to replay it
	// (a heldBody when the whole body was read within its row's bound).
	Body []byte
	// BodyID stands in for Body wherever two requests are compared for
	// equality: the body itself, or for a trace upload its header identity
	// and label, so megabytes of payload are never hashed or compared.
	BodyID string
	// Options is the request's canonical option identity — the query and the
	// Accept header as the route's own parameter list reads them: the
	// negotiated format, alias names normalised, defaults filled, parameter
	// order and repeated values that lose to the first irrelevant. Two
	// requests to one path with equal Options and BodyID get the same bytes
	// from the service. A query the route rejects keeps its stable-sorted raw
	// pairs instead.
	Options string

	route *route
	cells []cellRequest
}

// optionIdentity is the canonical option identity of a query to rt. A query
// rt rejects has no parsed form: it keeps its raw pairs, sorted by name, and
// its Accept header (a client that negotiated text gets its error as text),
// behind a "?" no parsed identity starts with.
func (rt *route) optionIdentity(q url.Values, accept string) string {
	opts, aerr := rt.parseOptions(q, accept)
	if aerr != nil {
		return "?" + q.Encode() + "\x00" + accept
	}
	return opts.identity()
}

// Identify resolves the workload identity of r from its route's row:
// routable is false when no workload-keyed route matches r's method and
// path. The identity step is deliberately lenient and cheap — a name-index
// lookup, one workload.ParseSpec per inline spec, trace.DecodeMeta on a
// trace's header (never a payload decode), the route's own option parse for
// Options — and buffers the body within the route's own limit. It is a
// function, not a Server method, because it reads only the table: the
// handler behind a routing layer may be wrapped.
func Identify(r *http.Request) (id Identity, routable bool) {
	var rt *route
	for i := range routes {
		if routes[i].path == r.URL.Path && routes[i].method == r.Method && routes[i].identity != identNone {
			rt = &routes[i]
			break
		}
	}
	if rt == nil {
		return id, false
	}
	q := r.URL.Query()
	id.route, id.Options = rt, rt.optionIdentity(q, r.Header.Get("Accept"))
	if rt.body > 0 && r.Body != nil {
		body, err := sizedio.ReadAll(r.Body, r.ContentLength, rt.body)
		r.Body.Close()
		id.Body = body
		if err != nil {
			r.Body = io.NopCloser(bytes.NewReader(body)) // the handler meets the same fault
			return id, true
		}
		r.Body = heldBody{bytes.NewReader(body), body}
	}
	switch rt.identity {
	case identQueryBench:
		id.cells = []cellRequest{{wireCell: wireCell{Bench: q.Get("bench")}}}
	case identBodyCell:
		id.cells = make([]cellRequest, 1)
		if json.Unmarshal(id.Body, &id.cells[0]) != nil {
			return id, true
		}
	case identBodyCells:
		var req sweepRequest
		if json.Unmarshal(id.Body, &req) != nil || len(req.Cells) > MaxSweepCells {
			return id, true
		}
		id.cells = req.Cells
	case identTraceHeader:
		m, err := trace.DecodeMeta(id.Body)
		if err != nil {
			return id, true
		}
		key := workload.TraceIdentity(m).String()
		id.Keys, id.BodyID = []string{key}, "trace\x00"+key+"\x00"+m.Label
		return id, true
	}
	id.BodyID = string(id.Body)
	keys := make([]string, len(id.cells))
	for i, c := range id.cells {
		fp, ok := c.fingerprint()
		if ok && rt.identity == identBodyCells { // a batch is refused whole, never split
			ok = c.Intervals == 0 && exp.Cell{Threads: c.Threads, Cores: c.Cores}.CheckShape() == nil
		}
		if !ok {
			return id, true
		}
		keys[i] = fp.String()
	}
	id.Keys = keys
	return id, true
}

// heldBody is a request body Identify read whole within its row's bound.
// The dispatcher does not bound it again, and the trace route decodes its
// bytes in place instead of reading them a second time.
type heldBody struct {
	*bytes.Reader
	data []byte
}

func (heldBody) Close() error { return nil }

// fingerprint resolves the cell's workload identity — a registered name's
// from the name index, an inline spec's by hashing it; ok is false when it
// does not resolve cleanly (the service will answer the error).
func (c wireCell) fingerprint() (fp workload.Fingerprint, ok bool) {
	if len(c.Spec) == 0 {
		_, fp, ok = workload.Identity(c.Bench)
		return fp, ok
	}
	if c.Bench != "" {
		return fp, false
	}
	spec, err := workload.ParseSpec(c.Spec)
	if err != nil {
		return fp, false
	}
	return spec.Fingerprint(), true
}

// Split is how a multi-cell request divides into sub-sweeps to the same
// path, one per group of cells, whose row lines Merge deals back into the
// whole answer.
type Split struct {
	// Query is every sub-request's query string, Options its canonical
	// option identity (Identity.Options).
	Query, Options string
	// Bodies are the sub-request bodies, one per group, in declared order.
	Bodies [][]byte
	// Format is what the client negotiated: FormatJSON or FormatNDJSON.
	Format stack.Format
	group  []int // each cell's group
}

// Split divides the identified multi-cell request r into one sub-sweep per
// group, group[i] being cell i's (from 0, none skipped). ok is false when
// its answer cannot be assembled from rows: a document format (csv, svg,
// text), or a query parameter the sub-requests would not carry — which must
// reach a service whole, to be answered or rejected there.
func (id Identity) Split(r *http.Request, group []int) (sp Split, ok bool) {
	q := r.URL.Query()
	f, err := stack.NegotiateFormat(q.Get("format"), r.Header.Get("Accept"), stack.FormatJSON)
	if err != nil || (f != stack.FormatJSON && f != stack.FormatNDJSON) {
		return sp, false
	}
	for k := range q {
		if k != "format" && k != "mode" {
			return sp, false
		}
	}
	sub := url.Values{"format": {string(stack.FormatNDJSON)}}
	if m := q.Get("mode"); m != "" {
		sub.Set("mode", m)
	}
	sp.Format, sp.Query, sp.Options, sp.group = f, sub.Encode(), id.route.optionIdentity(sub, ""), group
	reqs := make([]sweepRequest, slices.Max(group)+1)
	for i, c := range id.cells {
		reqs[group[i]].Cells = append(reqs[group[i]].Cells, c)
	}
	sp.Bodies = make([][]byte, len(reqs))
	for g := range reqs {
		if sp.Bodies[g], err = json.Marshal(reqs[g]); err != nil {
			return sp, false
		}
	}
	return sp, true
}

// Merge deals the groups' 200 reply bodies back into the whole answer: each
// cell, in declared order, takes the next row line of its group's reply, the
// json form indenting the rows as one array, as the service's own answer
// does. ok is false unless each reply holds one row per cell of its group.
func (sp Split) Merge(replies [][]byte) (body []byte, ok bool) {
	lines := make([][][]byte, len(replies))
	for g, reply := range replies {
		lines[g] = bytes.SplitAfter(reply, []byte("\n"))
	}
	rows := make([][]byte, len(sp.group))
	for i, g := range sp.group {
		if len(lines[g]) < 2 {
			return nil, false
		}
		rows[i], lines[g] = lines[g][0], lines[g][1:]
	}
	for g, rest := range lines {
		if len(rest) != 1 || len(rest[0]) != 0 || Partial(replies[g]) {
			return nil, false
		}
	}
	if sp.Format == stack.FormatNDJSON {
		return bytes.Join(rows, nil), true
	}
	var merged bytes.Buffer
	err := json.Indent(&merged, slices.Concat([]byte("["), bytes.Join(rows, []byte(",")), []byte("]")), "", "  ")
	return append(merged.Bytes(), '\n'), err == nil
}

// Partial reports whether a 200 reply body is an ndjson sweep that failed
// part way, which the service ends with an error line (answer): it answers
// its own request, but no other.
func Partial(body []byte) bool {
	last := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n')
	return bytes.HasPrefix(body[last+1:], []byte(`{"error"`))
}
