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
	"repro/internal/sim"
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
// reply announces (http.Response.ContentLength, -1 when unknown), which
// sizes the buffer as readAll's doc says, so a reply that keeps its word
// ends in a buffer of its own size, which a cache of replies (the fleet's)
// retains as is.
func ReadReply(body io.Reader, declared int64) ([]byte, error) {
	data, err := readAll(body, declared, MaxReplyBytes)
	if errors.Is(err, errTooLong) {
		return nil, fmt.Errorf("reply exceeds %d bytes", MaxReplyBytes)
	}
	return data, err
}

// readStart caps the buffer readAll makes before it has read a byte, so a
// sender that declares more than it sends buys at most readStart bytes;
// almost every request and reply body is below it.
const readStart = 64 << 10

// errTooLong is readAll's error for a stream longer than its limit.
var errTooLong = errors.New("service: stream exceeds its limit")

// readAll reads a whole stream whose sender announces its length — a JSON
// request body or a reply body with its Content-Length, or a body Identify
// buffers to replay — and returns the bytes, at most limit of them: a
// longer stream is errTooLong, never a truncated read. declared is the
// length r announces, -1 when unknown. Its cost is a function of the bytes
// that arrive: neither of the length announced, which a hostile sender
// chooses, nor of append's growth policy, which io.ReadAll inherits (about
// 5.7 times a multi-megabyte body in allocation). A trace is not read
// through it: the trace decoder reads its input once, into the chunks it
// keeps (trace.DecodeFrom).
//
// With a declared length the buffer starts at min(declared, 64 KiB)+1
// bytes and doubles, and once half the declared length has arrived it
// grows to exactly declared+1, the byte past the end that sees EOF. So a
// stream that keeps its word is read into one allocation of its own size
// up to 64 KiB, costs at most about 2.4 times its size above that, and
// ends in a buffer of its own size, which a cache may retain as is; a
// stream that declares 32 MiB and sends nothing costs 64 KiB. With none
// there is no size to aim at: the buffer starts at 512 bytes and grows as
// io.ReadAll's does, by append, whose smaller steps leave less spare room
// in what a cache retains than doubling would. On an error, readAll
// returns what it read with it, as io.ReadAll does.
func readAll(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared, readStart) + 1
	}
	data := make([]byte, 0, min(size, limit+1))
	lr := io.LimitedReader{R: r, N: limit + 1}
	for {
		if len(data) == cap(data) {
			if int64(len(data)) > limit {
				return data, errTooLong
			}
			data = grow(data, declared, limit)
		}
		n, err := lr.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return data, err
		}
	}
	if int64(len(data)) > limit {
		return data, errTooLong
	}
	return data, nil
}

// grow returns full data in a larger buffer. With a declared length it is
// twice the size, or exactly the declared length plus one once half of it
// has arrived, never past the limit plus the byte that shows a stream is
// over it (which data is below). Without one it is what append makes of
// it, as in io.ReadAll.
func grow(data []byte, declared, limit int64) []byte {
	if declared < 0 {
		return append(data, 0)[:len(data)]
	}
	size := 2 * int64(cap(data))
	if end := min(declared, limit) + 1; 2*int64(len(data)) >= end && int64(cap(data)) < end {
		size = end
	}
	grown := make([]byte, len(data), min(size, limit+1))
	copy(grown, data)
	return grown
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
	// stacks rows answer an aggregate report, a stack.Bars document (on
	// /v1/workloads/analyze only without "intervals"), which a fleet hop may
	// ask for as its exact rows (RowsHeader).
	stacks bool
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
		protected: true, identity: identQueryBench, stacks: true, parse: parseStack},
	{method: http.MethodGet, path: "/v1/stack/intervals", params: intervalsParams,
		protected: true, identity: identQueryBench, parse: parseStackIntervals},
	{method: http.MethodPost, path: "/v1/sweep",
		protected: true, identity: identBodyCells, body: maxJSONBytes, stacks: true, parse: parseSweep},
	{method: http.MethodPost, path: "/v1/workloads/analyze",
		protected: true, identity: identBodyCell, body: maxJSONBytes, stacks: true, parse: parseAnalyze},
	{method: http.MethodPost, path: "/v1/workloads/validate", body: maxJSONBytes, plain: validate},
	{method: http.MethodPost, path: "/v1/traces/analyze", params: traceParams,
		protected: true, identity: identTraceHeader, body: MaxTraceBytes, stacks: true, parse: parseTraceAnalyze},
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
	return one(s.cellsCall(s.engineRequest(opts, opts.cell))), nil
}

// parseStackIntervals is GET /v1/stack/intervals: one cell's time-resolved
// speedup stack, the run split into ?intervals=K equal slices of its
// committed ops (default 32).
func parseStackIntervals(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	return one(s.seriesCall(s.engineRequest(opts, opts.cell), opts.intervals)), nil
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
	reqs := make([]exp.Request, len(req.Cells))
	for i, c := range req.Cells {
		if c.Intervals != 0 {
			return nil, badRequest("sweeps return aggregate stacks; " +
				"use /v1/stack/intervals or /v1/workloads/analyze for a time-resolved one").within(cellLabel(i))
		}
		cell, err := buildCell(c.wireCell)
		if err != nil {
			return nil, asAPIError(err).within(cellLabel(i))
		}
		reqs[i] = s.engineRequest(opts, cell)
	}
	if opts.format != stack.FormatNDJSON {
		return one(s.cellsCall(reqs...)), nil
	}
	calls := make([]labelled, len(reqs))
	for i := range reqs {
		calls[i] = labelled{call: s.cellsCall(reqs[i : i+1]...), label: cellLabel(i)}
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
		return one(s.seriesCall(s.engineRequest(opts, cell), req.Intervals)), nil
	}
	return one(s.cellsCall(s.engineRequest(opts, cell))), nil
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
	return one(s.cellsCall(s.engineRequest(opts, cell))), nil
}

// parseAdvise is GET /v1/advise: the scaling advisor for one registered
// benchmark. The sweep's cells ride the same fingerprint-keyed memo as
// every other endpoint, so advising a benchmark that has already been
// measured reuses those runs, and repeating an advise is free.
func parseAdvise(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
	req := s.engineRequest(opts, opts.cell)
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
		return s.engine.WhatIf(ctx, s.engineRequest(opts, cell), req.Interventions)
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
	data, err := readAll(r.Body, r.ContentLength, maxJSONBytes)
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
	// benchmark, invalid spec or run shape, a batch outside its bounds or
	// with a query its route rejects): any node's service then answers the
	// canonical error.
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
	// Rows is Options with the format left out, set only when the reply is
	// an aggregate report (a stack.Bars document) and the query parses: a
	// routing layer may then ask the home for the report's exact rows
	// (RowsHeader), keep them under Rows and render them in any Format,
	// the format the request negotiated, with WriteDocument.
	Rows   string
	Format stack.Format

	route *route
	mode  sim.Mode
	cells []cellRequest
}

// optionIdentity is the canonical option identity of a query to rt, with
// the options it parses to (ok). A query rt rejects has no parsed form: it
// keeps its raw pairs, sorted by name, and its Accept header (a client that
// negotiated text gets its error as text), behind a "?" no parsed identity
// starts with.
func (rt *route) optionIdentity(q query, accept string) (identity string, opts requestOptions, ok bool) {
	opts, aerr := rt.parseOptions(q, accept)
	if aerr != nil {
		pairs, _ := url.ParseQuery(string(q))
		return "?" + pairs.Encode() + "\x00" + accept, opts, false
	}
	return opts.identity(), opts, true
}

// Identify resolves the workload identity of r from its route's row:
// routable is false when no workload-keyed route matches r's method and
// path. The identity step is cheap — a name-index lookup, one
// workload.ParseSpec per inline spec, trace.DecodeMeta on a trace's header
// (never a payload decode), the route's own option parse for Options — and
// buffers the body within the route's own limit. A sweep's body is judged
// by decodeStrict, its route's decoder, because Split re-encodes the cells:
// a field the route refuses must not vanish on the way. Other bodies cross
// a hop verbatim, and the home judges them. It is a function, not a Server
// method, because it reads only the table: the handler behind a routing
// layer may be wrapped.
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
	q := query(r.URL.RawQuery)
	id.route = rt
	var opts requestOptions
	var parsed bool
	id.Options, opts, parsed = rt.optionIdentity(q, r.Header.Get("Accept"))
	if parsed && rt.stacks {
		id.Format, id.mode, opts.format = opts.format, opts.mode, ""
		id.Rows = opts.identity() // a format no request negotiates: separate from every Options
	}
	if rt.body > 0 && r.Body != nil {
		body, err := readAll(r.Body, r.ContentLength, rt.body)
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
		id.cells = []cellRequest{{wireCell: wireCell{Bench: q.get("bench")}}}
	case identBodyCell:
		id.cells = make([]cellRequest, 1)
		if json.Unmarshal(id.Body, &id.cells[0]) != nil {
			return id, true
		}
		if id.cells[0].Intervals != 0 {
			id.Rows = "" // the time-resolved analysis is no aggregate report
		}
	case identBodyCells:
		var req sweepRequest // a rejected query has no Rows to split under
		if !parsed || decodeStrict(bytes.NewReader(id.Body), &req) != nil || len(req.Cells) > MaxSweepCells {
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
// path, one per group of cells, each answered as its group's exact rows.
// A sub-sweep's option identity is the whole request's Rows: a sweep takes
// no option but the format and the mode, which Query carries.
type Split struct {
	// Query is every sub-request's query string.
	Query string
	// Bodies are the sub-request bodies, one per group, in declared order.
	Bodies [][]byte
}

// Split divides the identified sweep into one sub-sweep per group, group[i]
// being cell i's (from 0, none skipped); a sweep on one home is one group.
// ok is false for anything but a sweep whose query the route reads, which
// must reach its home, or a service, whole.
func (id Identity) Split(group []int) (sp Split, ok bool) {
	if id.route.identity != identBodyCells || id.Rows == "" {
		return sp, false
	}
	sp.Query = "mode=" + id.mode.String()
	reqs := make([]sweepRequest, slices.Max(group)+1)
	for i, c := range id.cells {
		reqs[group[i]].Cells = append(reqs[group[i]].Cells, c)
	}
	sp.Bodies = make([][]byte, len(reqs))
	for g := range reqs {
		sp.Bodies[g], _ = json.Marshal(reqs[g]) // cannot fail: every cell was decoded from JSON
	}
	return sp, true
}
