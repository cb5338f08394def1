package service

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Query-option parsing shared by every /v1 route. Each row of the route
// table lists the query parameters it takes (params, in the order they are
// judged); one parser (called by the dispatcher, never by a handler) walks
// the list, negotiates the format, and applies the bounds, so endpoints
// cannot drift apart — and any parameter outside the list is a 400, never
// silently ignored (a misspelled ?thread=8 would otherwise measure the wrong
// cell without complaint). Every simulating (protected) row also takes
// ?format= (with Accept-header negotiation; the other rows always answer
// JSON), judged first, and ?mode=exact|fast, the simulation fidelity, judged
// last; the engine judges its use.

// The query parameters of the rows that take any beyond format and mode,
// each list in judging order. Threads is not a trace's parameter: a trace
// replays at its recorded thread count.
var (
	cellParams      = []string{"bench", "threads", "cores"}
	intervalsParams = []string{"bench", "threads", "cores", "intervals"}
	adviseParams    = []string{"bench", "max_threads"}
	traceParams     = []string{"cores"}
)

// takes reports whether rt takes the query parameter name.
func (rt *route) takes(name string) bool {
	return rt.protected && (name == "format" || name == "mode") || slices.Contains(rt.params, name)
}

// unknownParam is the refusal of a query parameter rt does not take.
func (rt *route) unknownParam(name string) *apiError {
	names := slices.Clone(rt.params)
	if rt.protected {
		names = append(names, "format", "mode")
	}
	slices.Sort(names)
	accepts := strings.Join(names, ", ")
	if accepts == "" {
		accepts = "no query parameters"
	}
	return &apiError{Status: http.StatusBadRequest, Code: codeUnknownParameter,
		Message: fmt.Sprintf("unknown query parameter %q (%s accepts %s)", name, rt.path, accepts)}
}

// requestOptions are the parsed, validated options of one request.
type requestOptions struct {
	format     stack.Format
	cell       exp.Cell
	intervals  int
	maxThreads int
	mode       sim.Mode
}

// identity renders the parsed options as the request's canonical option
// identity (Identity.Options): the values the service will act on rather
// than the spelling the client chose — the negotiated format, the canonical
// benchmark name, every default filled in (cores = threads included), in
// one fixed order. Options a row does not accept are zero for every request
// to it, so they separate nothing.
func (o requestOptions) identity() string {
	cores := o.cell.Cores
	if cores == 0 {
		cores = o.cell.Threads
	}
	b := make([]byte, 0, 96)
	b = append(b, o.format...)
	b = append(b, ' ')
	b = append(b, o.cell.Bench...)
	for _, n := range [...]int{o.cell.Threads, cores, o.intervals, o.maxThreads, int(o.mode)} {
		b = strconv.AppendInt(append(b, ' '), int64(n), 10)
	}
	return string(b)
}

// parseOptions parses and validates a request's query q (and its Accept
// header) against rt's list, refusing the first fault in judging order: an
// unknown parameter (the first by name), the format, each listed parameter
// in turn, the mode. Every refusal comes back as an apiError ready for
// writeError.
func (rt *route) parseOptions(q url.Values, accept string) (requestOptions, *apiError) {
	if rt.unchecked {
		return requestOptions{}, nil
	}
	unknown, found := "", false
	for name := range q {
		if !rt.takes(name) && (!found || name < unknown) {
			unknown, found = name, true
		}
	}
	if found {
		return requestOptions{}, rt.unknownParam(unknown)
	}

	opts := requestOptions{format: stack.FormatJSON}
	if rt.protected {
		f, err := stack.NegotiateFormat(q.Get("format"), accept, stack.FormatJSON)
		if err != nil {
			return requestOptions{}, badRequest("%v", err)
		}
		opts.format = f
	}
	for _, name := range rt.params {
		v := q.Get(name)
		if name == "bench" {
			if v == "" {
				return requestOptions{}, badRequest("missing bench parameter")
			}
			opts.cell.Bench = v
			if !rt.takes("cores") {
				// The advisor's workload is its name alone, judged now, so
				// an unknown bench outranks a malformed max_threads.
				full, _, ok := workload.Identity(v)
				if !ok {
					return requestOptions{}, asAPIError(workload.UnknownBenchmarkError(v))
				}
				opts.cell.Bench = full
			}
			continue
		}
		// Every other parameter is an integer, taking its default when
		// absent; threads has none.
		var n *int
		switch name {
		case "threads":
			n = &opts.cell.Threads
		case "cores":
			n = &opts.cell.Cores
		case "intervals":
			n, opts.intervals = &opts.intervals, exp.DefaultIntervals
		case "max_threads":
			n, opts.maxThreads = &opts.maxThreads, exp.DefaultThreads
		}
		if v != "" || name == "threads" {
			i, err := strconv.Atoi(v)
			if err != nil {
				return requestOptions{}, badRequest("bad %s %q: %v", name, v, err)
			}
			*n = i
		}
		if name == "cores" && opts.cell.Bench != "" {
			// A named cell is whole once its cores are read; a trace's is
			// judged with its spec.
			cell, err := checkCell(opts.cell)
			if err != nil {
				return requestOptions{}, asAPIError(err)
			}
			opts.cell = cell
		}
	}
	if rt.protected {
		m, err := sim.ParseMode(q.Get("mode"))
		if err != nil {
			return requestOptions{}, badRequest("%v", err)
		}
		opts.mode = m
	}
	return opts, nil
}

// checkCell validates a cell (shared by the query, body and trace paths)
// with the engine's own exp.Cell.Resolve, which judges the workload before
// the run shape: an unregistered name fails with a workload.LookupError
// (carrying the nearest-name suggestion), which asAPIError maps to HTTP 404.
// A named cell's plain-name alias ("cholesky") is normalized to the
// canonical full name Resolve found, so response labels are canonical.
func checkCell(c exp.Cell) (exp.Cell, error) {
	b, err := c.Resolve()
	if err != nil {
		return exp.Cell{}, err
	}
	if c.Spec == nil {
		c.Bench = b.FullName()
	}
	return c, nil
}
