// Command smoke drives a running speedupd server end to end through the
// public client package: every /v1 endpoint, format negotiation, the
// scaling advisor, and the uniform error envelope. CI starts a server and
// runs it; it exits non-zero on the first failed check.
//
// With -fleet it additionally drives a separate two-node fleet (started
// with -self/-peers): peer cache-fill byte-identity, the canonical
// peer-cache key (a reordered query is a hit, not a second forward),
// fleet-wide exactly-once simulation, forwarding counters, and streamed
// NDJSON sweeps. With -limited it checks the 429 envelope of a rate-limited
// server (started with -rate-limit 0.001, a one-token bucket). These use
// their own servers because the main suite pins literal run counts on -base.
//
// Usage:
//
//	go run ./scripts/smoke -base http://127.0.0.1:8091 [-pprof]
//	    [-fleet http://127.0.0.1:8092,http://127.0.0.1:8093]
//	    [-limited http://127.0.0.1:8094]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	speedupstack "repro"
	"repro/client"
)

func main() {
	base := flag.String("base", "http://127.0.0.1:8080", "server base URL")
	pprof := flag.Bool("pprof", false, "also probe /debug/pprof (server must run with -pprof)")
	fleet := flag.String("fleet", "", "two comma-separated base URLs of a 2-node fleet (fleet checks)")
	limited := flag.String("limited", "", "base URL of a server running -rate-limit 0.001 (429 envelope check)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	c := client.New(*base)

	ready(ctx, c, "healthz")

	names, err := c.Benchmarks(ctx)
	check("benchmarks", err)
	expect("benchmarks", len(names) >= 20, "only %d registered", len(names))

	const bench = "cholesky_splash2"
	row, err := c.Stack(ctx, client.Cell{Bench: bench, Threads: 8})
	check("stack", err)
	expect("stack", row.Benchmark == bench && row.Actual > 0, "row %+v", row)

	svg, ct, err := c.Raw(ctx, "/v1/stack",
		url.Values{"bench": {bench}, "threads": {"8"}, "format": {"svg"}}, "")
	check("stack svg", err)
	expect("stack svg", strings.HasPrefix(string(svg), "<svg") && ct == "image/svg+xml",
		"content type %q", ct)

	rep, err := c.StackIntervals(ctx, client.Cell{Bench: bench, Threads: 8}, 8)
	check("intervals", err)
	expect("intervals", rep.Benchmark == bench && len(rep.Intervals) > 0,
		"%d intervals", len(rep.Intervals))

	spec := []byte(`{"name":"ci-kernel","kind":"data_parallel","array_bytes":524288,` +
		`"sweeps_per_phase":1,"phases":1,"instr_per_access":2500,"store_frac":0.1,"seed":11}`)
	v, err := c.Validate(ctx, spec)
	check("validate", err)
	expect("validate", v.Valid && len(v.Fingerprint) == 64 && v.Canonical != nil, "result %+v", v)

	arow, err := c.Stack(ctx, client.Cell{Spec: v.Canonical, Threads: 8})
	check("analyze", err)
	expect("analyze", arow.Benchmark == "ci-kernel" && arow.Actual >= 1, "row %+v", arow)

	// The scaling advisor, JSON and text.
	a, err := c.Advise(ctx, bench, 8)
	check("advise", err)
	expect("advise", a.Benchmark == bench && a.MaxThreads == 8 && len(a.Points) == 4,
		"advice %+v", a)
	expect("advise", a.Class != "" && a.USL.R2 > 0, "fits not populated: %+v", a)
	text, ct, err := c.Raw(ctx, "/v1/advise",
		url.Values{"bench": {bench}, "max_threads": {"8"}, "format": {"text"}}, "")
	check("advise text", err)
	expect("advise text", strings.HasPrefix(ct, "text/plain") &&
		strings.Contains(string(text), "amdahl:") && strings.Contains(string(text), "usl:"),
		"content type %q, body %.80q", ct, string(text))

	// The causal what-if engine. The baseline cell (cholesky x8) is already
	// memoized by the stack and advise calls above, so this run simulates
	// only the mutated cells: all four catalog interventions apply to
	// cholesky (a task queue with a dispatch lock and skewed shares), hence
	// exactly four new cell runs — asserted by the metrics block below.
	wrep, err := c.WhatIf(ctx, client.Cell{Bench: bench, Threads: 8}, nil)
	check("whatif", err)
	expect("whatif", wrep.Benchmark == bench && wrep.Threads == 8 &&
		len(wrep.Predictions) == 4, "report %+v", wrep)
	expect("whatif", wrep.BaselineSpeedup > 0, "baseline not populated: %+v", wrep)
	for i, p := range wrep.Predictions {
		expect("whatif", p.Intervention != "" && p.Mutation != "" && p.ActualSpeedup > 0,
			"prediction %d incomplete: %+v", i, p)
		expect("whatif", i == 0 || p.PredictedGain <= wrep.Predictions[i-1].PredictedGain,
			"predictions not ranked by predicted gain: %+v", wrep.Predictions)
	}
	// Repeating the what-if — and narrowing it to a subset — is pure memo.
	wrep2, err := c.WhatIf(ctx, client.Cell{Bench: bench, Threads: 8}, []string{"double_llc"})
	check("whatif repeat", err)
	expect("whatif repeat", len(wrep2.Predictions) == 1 &&
		wrep2.Predictions[0].Intervention == "double_llc", "report %+v", wrep2)

	// Fast mode: the sampled fidelity rides the same wire surface via
	// Client.Mode. The fast cell never aliases the exact one in the memo,
	// so this is exactly one new (sampled) cell run — visible in the
	// fidelity split of the metrics block below — and its estimate stays
	// within the documented bounds of the exact estimate (the full
	// per-component contract, sim.FastErrorBounds, is pinned by CI's
	// fast-vs-exact regression test).
	fc := client.New(*base)
	fc.Mode = "fast"
	frow, err := fc.Stack(ctx, client.Cell{Bench: bench, Threads: 8})
	check("fast stack", err)
	expect("fast stack", frow.Benchmark == bench && frow.Actual > 0, "row %+v", frow)
	d := frow.Estimated - row.Estimated
	expect("fast stack", d < 3.6 && d > -3.6,
		"fast estimate %v too far from exact %v", frow.Estimated, row.Estimated)
	// Repeating the fast cell is a memo hit, like any other cell.
	frow2, err := fc.Stack(ctx, client.Cell{Bench: bench, Threads: 8})
	check("fast stack repeat", err)
	expect("fast stack repeat", frow2 == frow, "fast rows differ: %+v vs %+v", frow2, frow)
	// The advisor and the what-if engine need the exact machine: the engine
	// refuses both fast requests with 400 invalid_argument before simulating
	// anything, so the metrics block below counts no run for them.
	var ae *client.APIError
	_, aerr := fc.Advise(ctx, bench, 8)
	_, werr := fc.WhatIf(ctx, client.Cell{Bench: bench, Threads: 8}, nil)
	for _, err := range []error{aerr, werr} {
		expect("fast advise/what-if refused", errors.As(err, &ae) && ae.StatusCode == 400 &&
			ae.Code == "invalid_argument", "error %v", err)
	}

	// Recorded traces: record a cheap cell in-process (the same binary
	// format speedup-stack -record writes), upload it, and replay it at its
	// recorded thread count. Repeating the upload must ride the trace's
	// content-hash identity into the memo: zero extra simulations — pinned
	// by the run totals in the metrics block below.
	var tr bytes.Buffer
	const traceBench = "blackscholes_parsec_small"
	check("trace record", speedupstack.RecordTrace(&tr, speedupstack.Request{Bench: traceBench, Threads: 2}))
	trow, err := c.AnalyzeTrace(ctx, bytes.NewReader(tr.Bytes()), 0)
	check("trace analyze", err)
	expect("trace analyze", trow.Benchmark == traceBench && trow.Threads == 2 && trow.Actual > 0,
		"row %+v", trow)
	trow2, err := c.AnalyzeTrace(ctx, bytes.NewReader(tr.Bytes()), 0)
	check("trace analyze repeat", err)
	expect("trace analyze repeat", trow2 == trow, "trace rows differ: %+v vs %+v", trow2, trow)

	// The uniform error envelope: a typo'd benchmark is a 404 whose
	// suggestion is machine-readable, an undeclared query parameter is
	// a 400 with its own stable code, and a typo'd what-if intervention is
	// a 404 carrying the nearest catalog ID.
	_, err = c.Stack(ctx, client.Cell{Bench: "choleski", Threads: 8})
	expect("404 envelope", errors.As(err, &ae), "error %v", err)
	expect("404 envelope", ae.StatusCode == 404 && ae.Code == "unknown_benchmark" &&
		ae.Suggestion == "cholesky", "APIError %+v", ae)
	_, _, err = c.Raw(ctx, "/v1/advise",
		url.Values{"bench": {bench}, "threads": {"8"}}, "")
	expect("unknown-param envelope", errors.As(err, &ae), "error %v", err)
	expect("unknown-param envelope", ae.StatusCode == 400 && ae.Code == "unknown_parameter",
		"APIError %+v", ae)
	_, err = c.WhatIf(ctx, client.Cell{Bench: bench, Threads: 8}, []string{"double_lcc"})
	expect("unknown-intervention envelope", errors.As(err, &ae), "error %v", err)
	expect("unknown-intervention envelope", ae.StatusCode == 404 &&
		ae.Code == "unknown_intervention" && ae.Suggestion == "double_llc",
		"APIError %+v", ae)
	// An unknown simulation mode is a 400 with the uniform invalid_argument
	// envelope, like any other malformed value.
	fc.Mode = "bogus"
	_, err = fc.Stack(ctx, client.Cell{Bench: bench, Threads: 8})
	expect("bad-mode envelope", errors.As(err, &ae), "error %v", err)
	expect("bad-mode envelope", ae.StatusCode == 400 && ae.Code == "invalid_argument",
		"APIError %+v", ae)
	// A corrupt trace body answers the same envelope, and simulates nothing.
	_, err = c.AnalyzeTrace(ctx, strings.NewReader("not a trace"), 0)
	expect("corrupt-trace envelope", errors.As(err, &ae), "error %v", err)
	expect("corrupt-trace envelope", ae.StatusCode == 400 && ae.Code == "invalid_argument" &&
		strings.Contains(ae.Message, "bad trace"), "APIError %+v", ae)

	// Metrics: the run count pins the cache discipline of everything above —
	// stack (1 run, shared by svg/intervals), analyze (1), advise (threads
	// 1/2/4 new, 8 cached: 3), what-if (baseline cached, 4 mutated cells),
	// fast stack (1 sampled run, repeat cached), trace analyze (1 replay,
	// repeat cached under the trace's content hash); the what-if repeat, the
	// subset, the fast advise and what-if, and every error ran nothing. The fidelity split counts the
	// sampled run separately from the ten exact ones.
	// Every route is listed from the start, so the advise count must be
	// positive, not merely present.
	metrics, err := c.Metrics(ctx)
	check("metrics", err)
	for name, want := range map[string]int{
		"speedupd_sim_cell_runs_total":       11,
		"speedupd_sim_cell_runs_exact_total": 10,
		"speedupd_sim_cell_runs_fast_total":  1,
	} {
		expect("metrics", metricValue(metrics, name) == want, "%s is not %d in:\n%s", name, want, metrics)
	}
	for _, name := range []string{"speedupd_simulated_ops_total", `speedupd_requests_total{path="/v1/advise"}`} {
		expect("metrics", metricValue(metrics, name) > 0, "%s is not positive in:\n%s", name, metrics)
	}

	if *pprof {
		_, _, err := c.Raw(ctx, "/debug/pprof/cmdline", nil, "")
		check("pprof", err)
	}
	if *fleet != "" {
		fleetChecks(ctx, *fleet)
	}
	if *limited != "" {
		limitedChecks(ctx, *limited)
	}
	fmt.Println("smoke: all checks passed")
}

// fleetChecks drives a separate two-node fleet: the same cell through
// either node answers byte-identically and costs the fleet exactly one
// simulation and, in any parameter order, one forward; sweeps stream as
// NDJSON, and the fleet counters are live.
func fleetChecks(ctx context.Context, pair string) {
	urls := strings.Split(pair, ",")
	expect("fleet", len(urls) == 2, "-fleet wants two comma-separated URLs, got %q", pair)
	a, b := client.New(urls[0]), client.New(urls[1])
	ready(ctx, a, "fleet healthz")
	ready(ctx, b, "fleet healthz")

	// Peer cache-fill: one cell through both nodes. Whichever node is not
	// the cell's home forwards one hop and caches the home's bytes, so the
	// two answers are byte-identical.
	const bench = "canneal_parsec_small"
	q := url.Values{"bench": {bench}, "threads": {"2"}}
	bodyA, ctA, err := a.Raw(ctx, "/v1/stack", q, "")
	check("fleet stack A", err)
	bodyB, ctB, err := b.Raw(ctx, "/v1/stack", q, "")
	check("fleet stack B", err)
	expect("fleet byte-identity", string(bodyA) == string(bodyB) && ctA == ctB,
		"nodes disagree: %q (%s) vs %q (%s)", bodyA, ctA, bodyB, ctB)

	// Canonical peer-cache key: the node that is not the cell's home has
	// forwarded it once, spelled bench=...&threads=2. The same question in
	// the other parameter order is the same cache entry there — a peer-cache
	// hit, no second forward, the same bytes.
	away, awayURL := a, urls[0]
	m, err := a.Metrics(ctx)
	check("fleet metrics A", err)
	if metricValue(m, "speedupd_fleet_forwarded_total") == 0 {
		away, awayURL = b, urls[1]
		m, err = b.Metrics(ctx)
		check("fleet metrics B", err)
	}
	expect("fleet peer key", metricValue(m, "speedupd_fleet_forwarded_total") == 1,
		"the non-home node forwarded %d requests for one cell", metricValue(m, "speedupd_fleet_forwarded_total"))
	hits := metricValue(m, "speedupd_fleet_peer_cache_hits_total")
	reordered, err := http.Get(awayURL + "/v1/stack?threads=2&bench=" + bench)
	check("fleet peer key", err)
	rb, err := io.ReadAll(reordered.Body)
	reordered.Body.Close()
	check("fleet peer key read", err)
	expect("fleet peer key", reordered.StatusCode == 200 && string(rb) == string(bodyA),
		"reordered query answered %d %q, want %q", reordered.StatusCode, rb, bodyA)
	m, err = away.Metrics(ctx)
	check("fleet metrics", err)
	expect("fleet peer key", metricValue(m, "speedupd_fleet_forwarded_total") == 1 &&
		metricValue(m, "speedupd_fleet_peer_cache_hits_total") == hits+1,
		"reordered query: %d forwards, %d peer-cache hits; want 1 and %d",
		metricValue(m, "speedupd_fleet_forwarded_total"), metricValue(m, "speedupd_fleet_peer_cache_hits_total"), hits+1)

	// Streamed NDJSON sweep through node A: one compact row line per cell,
	// in declared order.
	sweep := `{"cells":[{"bench":"canneal_parsec_small","threads":2},` +
		`{"bench":"blackscholes_parsec_small","threads":2}]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		urls[0]+"/v1/sweep", strings.NewReader(sweep))
	check("fleet ndjson request", err)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	check("fleet ndjson", err)
	nb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	check("fleet ndjson read", err)
	expect("fleet ndjson", resp.StatusCode == 200 &&
		strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson"),
		"status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	lines := strings.Split(strings.TrimSuffix(string(nb), "\n"), "\n")
	expect("fleet ndjson", len(lines) == 2, "%d lines: %q", len(lines), nb)
	for i, want := range []string{"canneal_parsec_small", "blackscholes_parsec_small"} {
		expect("fleet ndjson", json.Valid([]byte(lines[i])) &&
			strings.Contains(lines[i], `"benchmark":"`+want+`"`) &&
			!strings.Contains(lines[i], "  "),
			"line %d not a compact %s row: %q", i, want, lines[i])
	}

	// Exactly-once plus live counters: two unique cells were touched above
	// (canneal x2 twice, blackscholes x2 once), so the fleet-wide run total
	// is 2, and at least one request was forwarded to its home.
	ma, err := a.Metrics(ctx)
	check("fleet metrics A", err)
	mb, err := b.Metrics(ctx)
	check("fleet metrics B", err)
	for _, m := range []string{ma, mb} {
		expect("fleet metrics", metricValue(m, "speedupd_fleet_nodes") == 2,
			"speedupd_fleet_nodes is not 2 in:\n%s", m)
	}
	runs := metricValue(ma, "speedupd_sim_cell_runs_total") +
		metricValue(mb, "speedupd_sim_cell_runs_total")
	expect("fleet exactly-once", runs == 2,
		"fleet simulated %d cells for 2 unique cells", runs)
	forwarded := metricValue(ma, "speedupd_fleet_forwarded_total") +
		metricValue(mb, "speedupd_fleet_forwarded_total")
	expect("fleet forwarding", forwarded >= 1, "no request was forwarded")
}

// limitedChecks pins the shed envelope of a server started with
// -rate-limit 0.001, whose bucket holds one token: the first simulating
// request drains it, the second is a 429 with the uniform envelope and a
// Retry-After hint.
func limitedChecks(ctx context.Context, baseURL string) {
	c := client.New(baseURL)
	ready(ctx, c, "limited healthz")
	_, err := c.Stack(ctx, client.Cell{Bench: "blackscholes_parsec_small", Threads: 1})
	check("limited first request", err)
	_, err = c.Stack(ctx, client.Cell{Bench: "blackscholes_parsec_small", Threads: 1})
	var ae *client.APIError
	expect("429 envelope", errors.As(err, &ae), "error %v", err)
	expect("429 envelope", ae.StatusCode == 429 && ae.Code == "rate_limited",
		"APIError %+v", ae)
}

// ready waits for a server that may still be binding when CI launches us.
func ready(ctx context.Context, c *client.Client, step string) {
	var err error
	for i := 0; i < 100; i++ {
		if err = c.Healthz(ctx); err == nil {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	check(step, err)
}

// metricValue reads one sample's value from a text exposition page: the
// line that is exactly the sample and its value, never a # HELP or # TYPE
// line naming it. A missing sample is 0.
func metricValue(metrics, name string) int {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.Atoi(fields[1])
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// check exits on a hard error.
func check(step string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "smoke: %s: %v\n", step, err)
		os.Exit(1)
	}
}

// expect exits when a check's condition does not hold.
func expect(step string, ok bool, format string, args ...any) {
	if !ok {
		fmt.Fprintf(os.Stderr, "smoke: %s: "+format+"\n", append([]any{step}, args...)...)
		os.Exit(1)
	}
}
