package service

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Query-option parsing shared by every /v1 route. Each row of the route
// table declares which parameters it accepts via an optionSpec; one parser
// (called by the dispatcher, never by a handler) enforces the declaration, negotiates the format, and applies the bounds, so endpoints
// cannot drift apart — and any parameter outside the declaration is a 400,
// never silently ignored (a misspelled ?thread=8 would otherwise measure
// the wrong cell without complaint). Every simulating (protected) row also
// accepts ?format= (with Accept-header negotiation; the other rows always
// answer JSON) and ?mode=exact|fast, the simulation fidelity, whose use the
// engine judges.

// optionSpec declares an endpoint's accepted query parameters beyond the
// format and mode every simulating row takes.
type optionSpec struct {
	// cell accepts bench, threads and cores — the single-cell GET shape.
	cell bool
	// intervals accepts the interval count of a time-resolved request.
	intervals bool
	// advise accepts bench and max_threads — the advisor GET shape.
	advise bool
	// traceCell accepts cores — the trace-analyze shape. Threads are not a
	// parameter: a trace replays at its recorded thread count.
	traceCell bool
	// unchecked skips the declaration check: the probe endpoints (/healthz,
	// /metrics) ignore whatever query a load balancer or scraper appends.
	unchecked bool
}

// params lists the parameter names rt accepts, sorted, for error messages.
func (rt *route) params() []string {
	var names []string
	if rt.protected {
		names = append(names, "format", "mode")
	}
	if rt.opts.cell {
		names = append(names, "bench", "threads", "cores")
	}
	if rt.opts.intervals {
		names = append(names, "intervals")
	}
	if rt.opts.advise {
		names = append(names, "bench", "max_threads")
	}
	if rt.opts.traceCell {
		names = append(names, "cores")
	}
	sort.Strings(names)
	return names
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
// header) against rt's declaration. Unknown parameters, malformed values and
// out-of-bounds shapes all come back as apiErrors ready for writeError.
func (rt *route) parseOptions(q url.Values, accept string) (requestOptions, *apiError) {
	if rt.opts.unchecked {
		return requestOptions{}, nil
	}
	allowed := make(map[string]bool, 6)
	for _, name := range rt.params() {
		allowed[name] = true
	}
	given := make([]string, 0, len(q))
	for name := range q {
		given = append(given, name)
	}
	sort.Strings(given)
	for _, name := range given {
		if !allowed[name] {
			accepts := "no query parameters"
			if len(allowed) > 0 {
				accepts = strings.Join(rt.params(), ", ")
			}
			return requestOptions{}, &apiError{Status: http.StatusBadRequest, Code: codeUnknownParameter,
				Message: fmt.Sprintf("unknown query parameter %q (%s accepts %s)", name, rt.path, accepts)}
		}
	}

	opts := requestOptions{format: stack.FormatJSON}
	if rt.protected {
		f, err := stack.NegotiateFormat(q.Get("format"), accept, stack.FormatJSON)
		if err != nil {
			return requestOptions{}, badRequest("%v", err)
		}
		opts.format = f
	}
	if rt.opts.cell {
		cell, err := parseCell(q.Get("bench"), q.Get("threads"), q.Get("cores"))
		if err != nil {
			return requestOptions{}, asAPIError(err)
		}
		opts.cell = cell
	}
	if rt.opts.intervals {
		opts.intervals = exp.DefaultIntervals
		if s := q.Get("intervals"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return requestOptions{}, badRequest("bad intervals %q: %v", s, err)
			}
			opts.intervals = n
		}
	}
	if rt.opts.advise {
		bench := q.Get("bench")
		if bench == "" {
			return requestOptions{}, badRequest("missing bench parameter")
		}
		full, _, ok := workload.Identity(bench)
		if !ok {
			return requestOptions{}, asAPIError(workload.UnknownBenchmarkError(bench))
		}
		opts.cell = exp.Cell{Bench: full}
		opts.maxThreads = exp.DefaultThreads
		if s := q.Get("max_threads"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return requestOptions{}, badRequest("bad max_threads %q: %v", s, err)
			}
			opts.maxThreads = n
		}
	}
	if rt.protected {
		m, err := sim.ParseMode(q.Get("mode"))
		if err != nil {
			return requestOptions{}, badRequest("%v", err)
		}
		opts.mode = m
	}
	if rt.opts.traceCell {
		if s := q.Get("cores"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return requestOptions{}, badRequest("bad cores %q: %v", s, err)
			}
			opts.cell.Cores = n
		}
	}
	return opts, nil
}

// parseCell validates one requested cell from query parameters.
func parseCell(bench, threadsStr, coresStr string) (exp.Cell, error) {
	if bench == "" {
		return exp.Cell{}, fmt.Errorf("missing bench parameter")
	}
	threads, err := strconv.Atoi(threadsStr)
	if err != nil {
		return exp.Cell{}, fmt.Errorf("bad threads %q: %v", threadsStr, err)
	}
	cores := 0
	if coresStr != "" {
		if cores, err = strconv.Atoi(coresStr); err != nil {
			return exp.Cell{}, fmt.Errorf("bad cores %q: %v", coresStr, err)
		}
	}
	return checkCell(exp.Cell{Bench: bench, Threads: threads, Cores: cores})
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
