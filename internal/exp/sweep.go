package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The sweep engine executes a declared set of simulation cells — each a
// (workload, threads, cores) triple under a machine configuration — on a
// bounded worker pool. Cells shared between figures are simulated exactly
// once: both sequential references and cell runs are memoized for the
// lifetime of the Engine, keyed by the complete machine configuration plus
// the workload's canonical fingerprint. Each section of the evaluation
// declares all its cells, across every machine it sweeps, in one Do; the
// memo is what removes the duplicates between sections, so every shared
// cell and reference is simulated once. Every simulation is a
// deterministic function of (config, workload), and results are delivered in
// declared order, so figure output is byte-identical regardless of the
// worker count.

// Cell is one declared simulation: a workload at a thread count on a core
// count. Cores == 0 means threads = cores, the paper's default pairing.
//
// The workload is either a registered benchmark named by Bench (FullName or
// plain name) or an inline Spec — the bring-your-own-benchmark path. Both
// resolve to the same identity, the spec's canonical workload.Fingerprint,
// which is what the memo keys on: a custom spec identical to a registry
// analogue (or to another custom spec under a different name) is the same
// simulation and runs once.
type Cell struct {
	// Bench names a registered benchmark analogue. Exactly one of Bench and
	// Spec is set.
	Bench string
	// Spec is an inline workload description. It is validated during
	// resolution and participates in dedup and memoization exactly like a
	// registry benchmark.
	Spec    *workload.Spec
	Threads int
	Cores   int
}

// normalize fills the Cores default.
func (c Cell) normalize() Cell {
	if c.Cores == 0 {
		c.Cores = c.Threads
	}
	return c
}

// Request is a Cell bound to an explicit machine configuration; a nil
// Config means the engine's base machine. Figure 9 and the ablations sweep
// machine parameters, so a single Do call can mix configurations and still
// execute every cell under one pool.
type Request struct {
	Cell
	Config *sim.Config
}

// cellKey identifies a memoized cell run: the full pre-tuning machine
// configuration plus the workload identity and run shape. sim.Config is a
// tree of flat value structs and Fingerprint a byte array, so the key is
// comparable and needs no serialization. Keying on the fingerprint rather
// than a name means registry cells, plain-name aliases and inline specs all
// collapse onto one entry when they describe the same workload.
type cellKey struct {
	cfg     sim.Config
	fp      workload.Fingerprint
	threads int
	cores   int
}

// seqKey identifies a memoized sequential reference. The configuration is
// the machine the reference runs on, sim.Config.Sequential, so runs that
// differ only in fields it never reads (core count included) share one Ts.
type seqKey struct {
	cfg sim.Config
	fp  workload.Fingerprint
}

// RequestError is a request the engine refuses before simulating anything:
// a run shape, count or workload naming outside what it accepts, an invalid
// inline spec, or the fast machine for an analysis that needs the exact
// one. Unknown names and intervention IDs fail with *workload.LookupError
// instead. Front ends map the type, never the text: the service answers a
// RequestError 400 invalid_argument.
type RequestError struct{ Err error }

// Error returns the refusal's message, unprefixed.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap returns the refusal's cause.
func (e *RequestError) Unwrap() error { return e.Err }

// refuse builds a RequestError from a format string.
func refuse(format string, args ...any) error {
	return &RequestError{fmt.Errorf(format, args...)}
}

// Resolve validates the cell — bench or spec, then the workload (a
// consistent inline Spec or a registered Bench, failing with the
// nearest-name suggestion), then its run shape — and returns the workload it
// names, an inline Spec in its canonical form. It is the one validation
// behind every engine entry point, the root package's Request and the
// service's cells, so the same bad input reads the same at every door and
// fails before any simulation. An endpoint's own rules (the what-if floor,
// the interval count, intervention IDs) are judged after it.
func (c Cell) Resolve() (workload.Benchmark, error) {
	b, err := c.resolveWorkload()
	if err != nil {
		return workload.Benchmark{}, err
	}
	return b, c.CheckShape()
}

// CheckShape is Resolve's run-shape rule alone: the thread and core counts.
func (c Cell) CheckShape() error {
	if c.Threads < 1 || c.Threads > trace.MaxThreads {
		return refuse("threads must be in [1,%d], got %d", trace.MaxThreads, c.Threads)
	}
	// A bare thread count is also the core count (the paper's pairing).
	if c.Cores < 0 || c.Cores > cache.MaxCores {
		return refuse("cores must be in [0,%d], got %d", cache.MaxCores, c.Cores)
	}
	if c.Cores == 0 && c.Threads > cache.MaxCores {
		return refuse("threads %d exceeds the simulator's %d-core limit; pass an explicit cores", c.Threads, cache.MaxCores)
	}
	return nil
}

// resolveWorkload is Resolve short of the run shape: bench or spec, then the
// workload.
func (c Cell) resolveWorkload() (workload.Benchmark, error) {
	if c.Spec != nil && c.Bench != "" {
		return workload.Benchmark{}, refuse("give bench or spec, not both")
	}
	if c.Spec != nil {
		s := *c.Spec
		if err := s.Validate(); err != nil {
			return workload.Benchmark{}, &RequestError{err}
		}
		return workload.Benchmark{Spec: s.Canonical()}, nil
	}
	b, ok := workload.ByName(c.Bench)
	if !ok {
		return workload.Benchmark{}, workload.UnknownBenchmarkError(c.Bench)
	}
	return b, nil
}

// Stats counts the engine's simulation traffic: actual simulator runs
// versus requests served from the memo.
type Stats struct {
	// SeqRuns and CellRuns are simulations actually executed.
	SeqRuns  int
	CellRuns int
	// FastCellRuns is the subset of CellRuns executed in sim.ModeFast (the
	// sampled fast lane); the exact-mode count is the difference. Fast and
	// exact cells never alias in the memo — Mode is part of sim.Config, the
	// memo key — so the split is exact.
	FastCellRuns int
	// SeqHits and CellHits are requests satisfied by a memoized (or
	// in-flight) entry.
	SeqHits  int
	CellHits int
	// CellEvictions counts completed cell runs dropped by the cell memo's
	// retention bound (WithCellMemoLimit); an evicted cell re-simulates on
	// its next request.
	CellEvictions int
	// CellMemoEntries and CellMemoLimit are the cell memo's occupancy:
	// currently retained entries (in-flight claims included) against the
	// configured bound (0 = unbounded) — cache pressure, not just churn.
	CellMemoEntries int
	CellMemoLimit   int
	// IntervalRuns and IntervalHits are the same run/hit pair for
	// time-resolved measurements (MeasureIntervals); IntervalEvictions
	// counts interval series dropped by the LRU bound.
	IntervalRuns      int
	IntervalHits      int
	IntervalEvictions int
	// InFlight is a gauge: simulations executing right now (worker slots
	// taken).
	InFlight int
	// SimulatedOps is the cumulative count of trace operations executed by
	// the engine's simulations (cells and sequential references; memo hits
	// add nothing). SimulatedOps over wall-clock time is the engine's
	// simulator throughput.
	SimulatedOps uint64
	// Batches counts the Do calls that declared at least one cell, memo
	// hits included: a section that declares its cells in one Do adds one.
	// CellsDeclared and CellsDone are the unique cells those calls declared
	// (duplicates within a call count once) and the ones answered so far —
	// the progress of everything the engine has been asked.
	Batches       int
	CellsDeclared int
	CellsDone     int
}

// Engine is the concurrent deduplicating sweep executor. It is safe for
// use by multiple goroutines; overlapping sweeps share the memo and never
// simulate the same cell twice. It is observed through Stats, which counts
// its batches, cells, runs and hits, and through the run hook, which sees
// each simulation start.
type Engine struct {
	base sim.Config
	// sem bounds simulation parallelism engine-wide: concurrent sweeps on
	// one engine share the same worker budget.
	sem chan struct{}

	// hook, if set, observes every simulation actually executed (kind is
	// "seq", "cell" or "interval"): tests, instrumentation and the
	// experiments progress line.
	hook func(kind string, bench string, threads, cores int)

	mu    sync.Mutex
	stats Stats

	// The three memos (internal/memo: singleflight plus LRU), keyed by the
	// engine's own identities, each bounded by cellLimit. Simulations are
	// deterministic, so every run retains its result, errors included; only
	// a claim abandoned by cancellation is released for the next caller.
	seq       *memo.Cache[seqKey, uint64]
	cells     *memo.Cache[cellKey, run]
	intervals *memo.Cache[intervalKey, IntervalOutcome]
	cellLimit int
}

// Option customizes an Engine.
type Option func(*Engine)

// DefaultWorkers is the worker pool's size when no door names one: one
// simulation per CPU the Go scheduler runs at once (GOMAXPROCS).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// WithWorkers bounds the worker pool (default: DefaultWorkers).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.sem = make(chan struct{}, n)
		}
	}
}

// WithRunHook installs a hook invoked once per simulation actually
// executed, with kind "seq", "cell" or "interval". Memo hits do not fire it.
func WithRunHook(f func(kind, bench string, threads, cores int)) Option {
	return func(e *Engine) { e.hook = f }
}

// WithCellMemoLimit bounds the cell memo to at most n completed
// cells (successful runs and memoized errors alike), evicted
// least-recently-used. Long-running engines (the speedupd service) use
// this to keep memory bounded; n <= 0 means unbounded, the right choice
// for one-shot regeneration where every cell is known up front. Eviction
// only drops completed entries — an in-flight simulation keeps its
// singleflight slot until it finishes — and an evicted cell simply
// re-simulates on its next request, so results are unaffected. The interval
// and sequential-reference memos get the same bound, each of its own: every
// key holds a full machine configuration and a client can mint keys at will
// (an inline spec's seed, a what-if mutation).
func WithCellMemoLimit(n int) Option {
	return func(e *Engine) { e.cellLimit = max(n, 0) }
}

// NewEngine returns an Engine executing against the given base machine.
func NewEngine(cfg sim.Config, opts ...Option) *Engine {
	e := &Engine{
		base: cfg,
		sem:  make(chan struct{}, DefaultWorkers()),
	}
	for _, o := range opts {
		o(e)
	}
	e.seq = memo.New[seqKey, uint64](e.cellLimit)
	e.cells = memo.New[cellKey, run](e.cellLimit)
	e.intervals = memo.New[intervalKey, IntervalOutcome](e.cellLimit)
	return e
}

// Config returns the engine's base machine configuration.
func (e *Engine) Config() sim.Config { return e.base }

// Stats returns a snapshot of the engine's simulation counters, merged
// with the memos' retention counters (evictions and occupancy).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	st.InFlight = len(e.sem)
	cell := e.cells.Occupancy()
	st.CellEvictions = cell.Evictions
	st.CellMemoEntries = cell.Entries
	st.CellMemoLimit = cell.Limit
	st.IntervalEvictions = e.intervals.Occupancy().Evictions
	return st
}

// Sweep executes the cells under the engine's base configuration and
// returns one Outcome per declared cell, in declared order.
func (e *Engine) Sweep(ctx context.Context, cells []Cell) ([]Outcome, error) {
	outs := make([]Outcome, len(cells))
	if err := e.Do(ctx, onMachine(e.base, cells), func(i int, out Outcome) { outs[i] = out }); err != nil {
		return nil, err
	}
	return outs, nil
}

// onMachine binds the cells to one machine configuration: a section that
// sweeps several machines (Figure 9's LLC sizes, the ablations) appends one
// such run per machine into a single Do.
func onMachine(cfg sim.Config, cells []Cell) []Request {
	reqs := make([]Request, len(cells))
	for i, c := range cells {
		reqs[i] = Request{Cell: c, Config: &cfg}
	}
	return reqs
}

// resolve validates one request (Cell.Resolve) and maps it to the workload
// it names and its memo key, under the request's machine or the engine's. A
// registered name's fingerprint comes from the workload name index, computed
// once per process; only an inline spec is hashed, once, here.
func (e *Engine) resolve(req Request) (workload.Benchmark, cellKey, error) {
	b, err := req.Cell.Resolve()
	if err != nil {
		return workload.Benchmark{}, cellKey{}, err
	}
	cell := req.Cell.normalize()
	k := cellKey{cfg: e.base, threads: cell.Threads, cores: cell.Cores}
	if req.Config != nil {
		k.cfg = *req.Config
	}
	if cell.Spec != nil {
		k.fp = b.Spec.Fingerprint()
	} else {
		_, k.fp, _ = workload.Identity(cell.Bench)
	}
	return b, k, nil
}

// ErrNotMemoized is a MemoOnly call's answer when the memo lacks part of it.
var ErrNotMemoized = errors.New("exp: not memoized")

type memoOnlyKey struct{}

// MemoOnly marks ctx so that an engine call under it answers from retained
// memo entries alone, on the caller's goroutine, or fails with
// ErrNotMemoized before moving any Stats counter — so repeating the call
// under an ordinary context counts every hit, batch and cell once.
func MemoOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, memoOnlyKey{}, true)
}

// memoOnly reports whether ctx was marked by MemoOnly.
func memoOnly(ctx context.Context) bool { return ctx.Value(memoOnlyKey{}) != nil }

// dedupScan is the largest batch Do deduplicates by scanning its keys, on
// the stack; a larger one builds a map. The scan spends about n key
// comparisons per key (~30 ns each: cellKey is 208 bytes of fields), a map
// about 300 ns per key (a hash of the key, an insert, a lookup and, for a
// key this large, an allocation of its own), both measured on a 2-vCPU x86
// host with go1.24, so the scan wins below their ratio.
const dedupScan = 300 / 30

// Do executes a batch of requests, deduplicating identical cells within
// the batch and against everything the engine has already simulated, and
// hands deliver each request's Outcome, in declared order and duplicates
// included, once the whole batch has succeeded. Cells the memo retains are
// answered on the caller's goroutine; only the rest — misses and joins of
// another call's in-flight cell — get a goroutine each, and their runs are
// copied back before anything is delivered. deliver is called on the
// caller's goroutine and never retained, and a batch of up to dedupScan
// requests keeps its bookkeeping on Do's stack, so a batch the memo holds
// whole allocates nothing. On error nothing is delivered and the first
// failure in declared order is returned; a refused request fails the batch
// before anything runs, with the refusal as Cell.Resolve words it (a caller
// that names its cells, as the service does, labels them itself). A
// canceled context aborts promptly without waiting for queued cells.
func (e *Engine) Do(ctx context.Context, reqs []Request, deliver func(i int, out Outcome)) error {
	// Resolve every request up front, so unknown names and invalid inline
	// specs fail before any simulation is spent. The bookkeeping of a batch
	// of up to dedupScan requests stays on the stack.
	benches := make([]workload.Benchmark, 0, dedupScan)
	keys := make([]cellKey, 0, dedupScan)
	runs := make([]run, dedupScan)
	if len(reqs) > dedupScan {
		benches, keys, runs = make([]workload.Benchmark, 0, len(reqs)), make([]cellKey, 0, len(reqs)), make([]run, len(reqs))
	}
	for _, req := range reqs {
		b, k, err := e.resolve(req)
		if err != nil {
			return err
		}
		benches, keys = append(benches, b), append(keys, k)
	}
	// A duplicate collapses onto the first request with its key.
	first := func(i int) int { return slices.Index(keys, keys[i]) }
	if len(keys) > dedupScan {
		seen := make(map[cellKey]int, len(keys))
		for i := len(keys) - 1; i >= 0; i-- {
			seen[keys[i]] = i
		}
		first = func(i int) int { return seen[keys[i]] }
	}
	// The first failure in declared order, preferring a real simulation
	// error over the cancellations it triggered in the rest of the pool.
	var failure error
	canceled := func(err error) bool { return err == context.Canceled || err == context.DeadlineExceeded }
	fail := func(err error) {
		if err != nil && (failure == nil || canceled(failure) && !canceled(err)) {
			failure = err
		}
	}

	misses := make([]int, 0, dedupScan)
	unique, answered := 0, 0
	for i, k := range keys {
		if first(i) != i {
			continue
		}
		unique++
		r, err, ok := e.cells.Peek(k)
		switch {
		case !ok:
			misses = append(misses, i)
		case err != nil:
			fail(err)
		default:
			runs[i] = r
			answered++
		}
	}
	if len(misses) > 0 && memoOnly(ctx) {
		return ErrNotMemoized
	}
	e.mu.Lock()
	e.stats.Batches += min(unique, 1) // a batch of no cells is none
	e.stats.CellsDeclared += unique
	e.stats.CellsDone += answered
	e.stats.CellHits += unique - len(misses)
	e.mu.Unlock()

	// One goroutine per miss, unless a retained failure already decides the
	// batch; the engine-wide semaphore bounds the actual simulations, not
	// these bookkeeping goroutines, so a cell waiting on another claimant's
	// in-flight work never idles a slot. The goroutines answer into slices
	// of their own, so nothing of Do's stack is shared with them.
	if len(misses) > 0 && failure == nil {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		got := make([]run, len(misses))
		errs := make([]error, len(misses))
		var wg sync.WaitGroup
		for m, i := range misses {
			// A miss runs the first workload resolved for its fingerprint.
			j := slices.IndexFunc(keys, func(k cellKey) bool { return k.fp == keys[i].fp })
			wg.Add(1)
			go func(m int, k cellKey, b workload.Benchmark) {
				defer wg.Done()
				r, err := e.cell(ctx, k, b)
				if err != nil {
					errs[m] = err
					cancel()
					return
				}
				got[m] = r
				e.add(&e.stats.CellsDone, 1)
			}(m, keys[i], benches[j])
		}
		wg.Wait()
		for m, i := range misses { // misses are in declared order
			fail(errs[m])
			runs[i] = got[m]
		}
	}
	if failure != nil {
		return failure
	}
	for i := range keys {
		deliver(i, Outcome{Bench: benches[i], run: runs[first(i)]})
	}
	return nil
}

// acquire takes an engine-wide worker slot for one simulation (Stats counts
// the taken slots in flight), or fails with the context's error — also when
// the context died while the slot was being handed over. The returned
// release must be called once the simulation is done.
func (e *Engine) acquire(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		<-e.sem
		return nil, err
	}
	return func() { <-e.sem }, nil
}

// cell resolves one unique cell through the cell memo: claim and
// simulate, or wait for whoever holds it. Abandoned claims (context
// canceled before the simulation ran) are retried by the next caller.
func (e *Engine) cell(ctx context.Context, k cellKey, b workload.Benchmark) (run, error) {
	return e.cells.Do(ctx, k,
		func() { e.add(&e.stats.CellHits, 1) },
		func() (run, bool, error) {
			r, err := e.runCell(ctx, k, b)
			return r, true, err
		})
}

// add moves one of the stats counters by d under the stats lock.
func (e *Engine) add(counter *int, d int) {
	e.mu.Lock()
	*counter += d
	e.mu.Unlock()
}

// simulate is the one place the engine runs the simulator: it takes a
// worker slot, fires the run hook (before the run, so an observer sees work
// start), counts the run under its kind — "cell", "seq" or "interval" — and
// its simulated ops, and hands the spec to workload.Simulate. threads == 0
// is the sequential reference (workload.Simulate's convention), which the
// hook sees as the one-thread, one-core run it is.
func (e *Engine) simulate(ctx context.Context, kind string, cfg sim.Config, b workload.Benchmark, threads, cores int, opts ...sim.Option) (sim.Result, error) {
	release, err := e.acquire(ctx)
	if err != nil {
		return sim.Result{}, err
	}
	defer release()
	if e.hook != nil {
		e.hook(kind, b.FullName(), max(threads, 1), max(cores, 1))
	}
	e.mu.Lock()
	switch kind {
	case "cell":
		e.stats.CellRuns++
		if cfg.Mode == sim.ModeFast {
			e.stats.FastCellRuns++
		}
	case "seq":
		e.stats.SeqRuns++
	case "interval":
		e.stats.IntervalRuns++
	}
	e.mu.Unlock()

	res, err := workload.Simulate(cfg, b.Spec, threads, cores, nil, opts...)
	e.mu.Lock()
	e.stats.SimulatedOps += res.TotalOps
	e.mu.Unlock()
	return res, err
}

// runCell executes the cell's simulation (after securing its sequential
// reference), mirroring the paper's pairing of every multi-threaded run
// with a single-threaded run of the same work.
func (e *Engine) runCell(ctx context.Context, k cellKey, b workload.Benchmark) (run, error) {
	ts, err := e.seqTime(ctx, k.cfg, k.fp, b)
	if err != nil {
		return run{}, err
	}
	res, err := e.simulate(ctx, "cell", k.cfg, b, k.threads, k.cores)
	if err != nil {
		return run{}, err
	}
	return run{Ts: ts, Stack: res.Stack(ts), Oracle: res.Oracle, TotalOps: res.TotalOps}, nil
}

// seqTime resolves the single-threaded reference time of b, whose
// fingerprint is fp (the cell key's: it is not hashed again), keyed by and
// simulated on cfg's sequential machine, with the claim-or-wait of cell.
func (e *Engine) seqTime(ctx context.Context, cfg sim.Config, fp workload.Fingerprint, b workload.Benchmark) (uint64, error) {
	cfg = cfg.Sequential()
	return e.seq.Do(ctx, seqKey{cfg: cfg, fp: fp},
		func() { e.add(&e.stats.SeqHits, 1) },
		func() (uint64, bool, error) {
			res, err := e.simulate(ctx, "seq", cfg, b, 0, 0)
			return res.Tp, true, err
		})
}
