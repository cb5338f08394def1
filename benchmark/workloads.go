package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
)

// goldenHash is golden_test.go's pin of the `experiments all` artifact set.
const goldenHash = "095d6b27e2582d8672b31613ce2078de527279cde9450a2b31d59b0d24733bff"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// env is what a run's parts share.
type env struct {
	ctx      context.Context
	seed     int64
	sz       sizes
	clk      *clock
	rec      *recorder
	expected map[string]string // pinned reply digests of this workload
	pin      map[string]string // replies seen, when regenerating expected.json
	// hookTicks lets the engine's run hook time the kernel between
	// simulations. Off in traced runs: the kernel would sit inside spans.
	hookTicks bool
	fault     bool // corrupt the first check, to prove a wrong output fails the run
}

// op is one timed operation.
type op struct {
	start, end stamp
	ok         bool
}

// state is a set-up workload: rep runs one repetition, appending its
// operations; reset (optional) runs untimed before each repetition; counts
// returns the layers' cumulative counters; errs are the |estimated-actual|/N
// percentages of the 16-thread exact cells seen so far.
type state struct {
	rep    func(ops *[]op) error
	reset  func() error
	counts func() (map[string]float64, error)
	errs   map[string]float64
	close  func()
}

func (e *env) hook(node int) exp.Option {
	return exp.WithRunHook(func(kind, bench string, threads, _ int) {
		e.rec.endRun(node)
		if e.hookTicks {
			e.clk.tick()
		}
		e.rec.startRun(node, fmt.Sprintf("%s %s x%d", kind, bench, threads))
	})
}

// check compares one output with its pinned digest (expected.json holds
// seed 1's; requests that do not depend on the seed match at every seed) and
// with the first output seen under the same label: repetition k must
// reproduce repetition 1 byte for byte, and a peer's reply the home node's.
func (e *env) check(ref map[string]string, label string, out []byte) bool {
	d := digest(out)
	if e.fault {
		e.fault = false
		return false
	}
	if e.pin != nil {
		e.pin[label] = d
	}
	if want, ok := e.expected[label]; ok && d != want {
		return false
	}
	if want, ok := ref[label]; ok {
		return d == want
	}
	ref[label] = d
	return true
}

// ---- eval_all -------------------------------------------------------------

// regenerate produces the `experiments all` artifact set exactly as
// golden_test.go does and returns it with the 16-thread validation error.
func regenerate(ctx context.Context, e *exp.Engine) ([]byte, float64, error) {
	var buf bytes.Buffer
	var err16 float64
	sections := []func() error{
		func() error { v, err := exp.Figure1(ctx, e); buf.WriteString(exp.FormatCurves(v)); return err },
		func() error {
			rows, err := exp.Validation(ctx, e)
			if err == nil {
				err16 = rows[len(rows)-1].MeanAbsErrPct
			}
			buf.WriteString(exp.FormatValidation(rows))
			return err
		},
		func() error { v, err := exp.Figure4(ctx, e); buf.WriteString(exp.FormatFigure4(v)); return err },
		func() error {
			bars, err := exp.Figure5(ctx, e)
			if err != nil {
				return err
			}
			buf.WriteString(stack.Table(bars))
			return exp.WriteStacksCSV(&buf, bars)
		},
		func() error { v, err := exp.Figure6(ctx, e); buf.WriteString(exp.FormatFigure6(v)); return err },
		func() error { v, err := exp.Figure7(ctx, e); buf.WriteString(exp.FormatFigure7(v)); return err },
		func() error { v, err := exp.Figure8(ctx, e); buf.WriteString(exp.FormatInterference(v)); return err },
		func() error { v, err := exp.Figure9(ctx, e); buf.WriteString(exp.FormatInterference(v)); return err },
	}
	for _, section := range sections {
		if err := section(); err != nil {
			return nil, 0, err
		}
	}
	return buf.Bytes(), err16, nil
}

// regenerateTiny is the smoke-test stand-in: the cheapest cells' stacks.
func regenerateTiny(ctx context.Context, e *exp.Engine) ([]byte, float64, error) {
	outs, err := e.Sweep(ctx, exemplarCells(tiny))
	if err != nil {
		return nil, 0, err
	}
	bars := make([]stack.Bar, len(outs))
	for i, o := range outs {
		bars[i] = stack.Bar{Label: o.Bench.FullName(), Stack: o.Stack}
	}
	return []byte(stack.Table(bars)), 100 * math.Abs(outs[0].Error()), nil
}

// exemplarCells are the paper's three exemplars at the top thread count
// (the cheapest cells when smoke-testing).
func exemplarCells(sz sizes) []exp.Cell {
	names := []string{"blackscholes_parsec_medium", "facesim_parsec_medium", "cholesky_splash2"}
	if sz.tiny {
		names = tinyAnalogues
	}
	cells := make([]exp.Cell, len(names))
	for i, name := range names {
		cells[i] = exp.Cell{Bench: name, Threads: sz.threads}
	}
	return cells
}

func newEngine(e *env, node, cacheCells int) *exp.Engine {
	return exp.NewEngine(sim.Default(), exp.WithWorkers(1), exp.WithCellMemoLimit(cacheCells), e.hook(node))
}

func setupEvalAll(e *env) (*state, error) {
	regen, want, label := regenerate, goldenHash, "experiments all"
	if e.sz.tiny {
		regen, want, label = regenerateTiny, "", "smoke"
	}
	// Warm-up: the paper's three exemplars at 16 threads grow the heap and
	// fill the simulator's machine pool before anything is timed.
	if _, err := newEngine(e, 0, 0).Sweep(e.ctx, exemplarCells(e.sz)); err != nil {
		return nil, err
	}
	st := &state{errs: map[string]float64{}, close: func() {}}
	ref := map[string]string{}
	var engine *exp.Engine
	// A fresh engine per repetition: nothing memoized, as `experiments all` starts.
	st.reset = func() error { engine = newEngine(e, 0, 0); return nil }
	st.rep = func(ops *[]op) error {
		id := e.rec.start("client.request", link{kind: "eval_all"}, 0)
		e.rec.setCur(0, id)
		t0 := now()
		out, err16, err := regen(e.ctx, engine)
		t1 := now()
		e.rec.setCur(0, 0)
		e.rec.end(id, len(out))
		if err != nil {
			return err
		}
		sum := sha256.Sum256(out)
		ok := want == "" || hex.EncodeToString(sum[:]) == want
		ok = e.check(ref, label, out) && ok
		st.errs["validation"] = err16
		*ops = append(*ops, op{t0, t1, ok})
		return nil
	}
	st.counts = func() (map[string]float64, error) {
		s := engine.Stats()
		return map[string]float64{"cell_runs": float64(s.CellRuns), "seq_runs": float64(s.SeqRuns),
			"cell_hits": float64(s.CellHits), "interval_runs": float64(s.IntervalRuns),
			"simulated_ops": float64(s.SimulatedOps), "cell_evictions": float64(s.CellEvictions)}, nil
	}
	return st, nil
}

// ---- service workloads ----------------------------------------------------

// node is one in-process speedupd on a loopback listener.
type node struct {
	url  string
	stop func()
}

// serve runs h on l; stop shuts the server down and returns once the serving
// goroutine has.
func serve(l net.Listener, h http.Handler) *node {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- service.Serve(ctx, l, h, time.Second) }()
	return &node{url: "http://" + l.Addr().String(), stop: func() { cancel(); <-done }}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serviceHandler is one node's speedupd behind its service.handle span.
func (e *env) serviceHandler(idx, cacheCells int) http.Handler {
	svc := service.New(service.Options{Engine: newEngine(e, idx, cacheCells)})
	return e.rec.handler("service.handle", idx, true, svc.Handler())
}

// svc is the closed-loop client of the service workloads: one client, one
// keep-alive connection per node, the next request only after the reply.
type svc struct {
	e      *env
	nodes  []*node
	client *http.Client
	ref    map[string]string
	errs   map[string]float64
	buf    bytes.Buffer
}

func newSvc(e *env) *svc {
	return &svc{e: e, ref: map[string]string{}, errs: map[string]float64{},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (s *svc) close() {
	s.client.CloseIdleConnections()
	for _, n := range s.nodes {
		n.stop()
	}
	s.nodes = nil
}

// send performs one request and checks its reply. Only the exchange is
// timed; checking and the kernel come after.
func (s *svc) send(r request) (op, error) {
	req, err := http.NewRequestWithContext(s.e.ctx, r.Method, s.nodes[r.Node].url+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return op{}, err
	}
	if r.CType != "" {
		req.Header.Set("Content-Type", r.CType)
	}
	id := s.e.rec.start("client.request", link{kind: r.Kind}, r.Node)
	if id != 0 {
		req.Header.Set(spanHeader, link{trace: id, parent: id, kind: r.Kind}.header())
	}
	s.buf.Reset()
	t0 := now()
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = s.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	t1 := now()
	s.e.rec.end(id, s.buf.Len())
	if err != nil {
		if s.e.ctx.Err() != nil {
			return op{}, s.e.ctx.Err()
		}
		return op{t0, t1, false}, nil
	}
	body := s.buf.Bytes()
	ok := resp.StatusCode/100 == 2 && s.e.check(s.ref, r.Label, body)
	if _, seen := s.errs[r.Label]; ok && r.ErrRow && !seen {
		var rows []stack.ReportRow
		if json.Unmarshal(body, &rows) != nil || len(rows) != 1 {
			ok = false
		} else {
			s.errs[r.Label] = 100 * math.Abs(rows[0].Estimated-rows[0].Actual) / float64(rows[0].Threads)
		}
	}
	s.e.clk.tick()
	return op{t0, t1, ok}, nil
}

// sendAll sends reqs in order, appending the operations to ops. The warm-up
// passes nil: a wrong reply there is wrong again in the loop, which counts it.
func (s *svc) sendAll(reqs []request, ops *[]op) error {
	for _, r := range reqs {
		o, err := s.send(r)
		if err != nil {
			return err
		}
		if ops != nil {
			*ops = append(*ops, o)
		}
	}
	return nil
}

// counts scrapes every node's /metrics and sums the counters the per-layer
// metrics use.
func (s *svc) counts() (map[string]float64, error) {
	names := map[string]string{
		"speedupd_sim_cell_runs_total": "cell_runs", "speedupd_sim_seq_runs_total": "seq_runs",
		"speedupd_sim_cell_memo_hits_total": "cell_hits", "speedupd_sim_interval_runs_total": "interval_runs",
		"speedupd_simulated_ops_total": "simulated_ops", "speedupd_sim_cell_evictions_total": "cell_evictions",
		"speedupd_fleet_local_total": "local", "speedupd_fleet_forwarded_total": "forwarded",
		"speedupd_fleet_peer_cache_hits_total": "peer_hits", "speedupd_fleet_peer_errors_total": "peer_errors",
	}
	out := map[string]float64{}
	for _, n := range s.nodes {
		resp, err := s.client.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		s.buf.Reset()
		_, err = s.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(s.buf.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(val, 64)
			if !ok || err != nil {
				continue
			}
			if key, ok := names[name]; ok {
				out[key] += v
			} else if strings.HasPrefix(name, "speedupd_responses_total{") && name != `speedupd_responses_total{code="200"}` {
				out["non_200"] += v
			}
		}
	}
	return out, nil
}

func (s *svc) state(rep func(ops *[]op) error) *state {
	return &state{rep: rep, counts: s.counts, errs: s.errs, close: s.close}
}

func setupAnalyzeCold(e *env) (*state, error) {
	reqs, err := coldRequests(e.seed, e.sz)
	if err != nil {
		return nil, err
	}
	s := newSvc(e)
	st := s.state(func(ops *[]op) error { return s.sendAll(reqs, ops) })
	// A fresh server per repetition, so every request simulates; its
	// 32-cell memo is smaller than one pass's cells and evicts while it fills.
	st.reset = func() error {
		s.close()
		l, err := listen()
		if err != nil {
			return err
		}
		s.nodes = []*node{serve(l, e.serviceHandler(0, 32))}
		return nil
	}
	return st, st.reset()
}

func setupMemoHit(e *env) (*state, error) {
	distinct, block := hitRequests(e.seed, e.sz)
	s := newSvc(e)
	l, err := listen()
	if err != nil {
		return nil, err
	}
	s.nodes = []*node{serve(l, e.serviceHandler(0, 4096))}
	if err := s.sendAll(distinct, nil); err != nil {
		s.close()
		return nil, err
	}
	return s.state(func(ops *[]op) error { return s.sendAll(block, ops) }), nil
}

func setupPeerHop(e *env) (*state, error) {
	warm, block, err := hopRequests(e.seed, e.sz)
	if err != nil {
		return nil, err
	}
	s := newSvc(e)
	// Listeners first: the peers' client resolves the fixed member names to
	// their addresses.
	addrs := map[string]string{}
	listeners := make([]net.Listener, len(fleetMembers))
	for i, member := range fleetMembers {
		l, err := listen()
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, err
		}
		listeners[i] = l
		addrs[strings.TrimPrefix(member, "http://")+":80"] = l.Addr().String()
	}
	dialer := &net.Dialer{}
	for i, member := range fleetMembers {
		peers := &http.Transport{MaxIdleConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dialer.DialContext(ctx, network, addrs[addr])
			}}
		fh, err := fleet.Wrap(e.serviceHandler(i, 4096), fleet.Options{Self: member, Peers: fleetMembers, CacheEntries: 64,
			Client: &http.Client{Transport: &peerTransport{rec: e.rec, node: i, base: peers}}})
		if err != nil {
			panic(err) // fleetMembers is a valid, fixed member list
		}
		n := serve(listeners[i], e.rec.handler("fleet.handle", i, false, fh))
		stop := n.stop
		n.stop = func() { stop(); peers.CloseIdleConnections() }
		s.nodes = append(s.nodes, n)
	}
	if err := s.sendAll(warm, nil); err != nil {
		s.close()
		return nil, err
	}
	return s.state(func(ops *[]op) error { return s.sendAll(block, ops) }), nil
}

// pipeMix is the weight of the kernel's pipe part in a workload's slowdown:
// the service workloads slow as the exchanges do, the simulating ones as the
// mean of both parts does (README, "The reference kernel").
var pipeMix = map[string]float64{"eval_all": 0.5, "analyze_cold": 0.5}

var setups = map[string]func(*env) (*state, error){
	"eval_all": setupEvalAll, "analyze_cold": setupAnalyzeCold, "memo_hit": setupMemoHit, "peer_hop": setupPeerHop,
}
