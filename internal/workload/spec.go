// Package workload defines the synthetic benchmark analogues standing in for
// the paper's SPLASH-2 / PARSEC / Rodinia binaries.
//
// Each analogue is a Spec: a behavioural description (data footprint,
// sharing, memory intensity, synchronization structure, work imbalance,
// parallelization overhead) from which deterministic per-thread programs are
// generated. The specs in registry.go are calibrated so that, on the default
// machine, each analogue reproduces the published scaling category, the
// approximate 16-thread speedup, and the dominant speedup-stack components
// of its namesake (paper Figure 6).
//
// Three structural families cover the suite:
//
//   - Data-parallel: barrier-separated phases; each thread sweeps its slice
//     of a global array, with optional shared-region accesses and critical
//     sections. Work imbalance is injected with a tunable skew, which the
//     spin-then-yield barriers convert into spinning/yielding exactly as in
//     the paper (Section 3.4: barrier imbalance is classified as
//     synchronization).
//   - Task-queue: items are dispensed under a global lock whose hold time
//     throttles effective parallelism (cholesky-, freqmine-style). Whether
//     the resulting waits show up as spinning or yielding depends on the
//     lock library's spin grace (SPLASH-2 locks spin; pthread mutexes park).
//   - Pipeline: stages connected by bounded queues, with serial input/output
//     stages (ferret-, dedup-style); starved stages yield, and the serial
//     stages cap the speedup at 1/w_serial.
package workload

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/syncprim"
	"repro/internal/trace"
)

// Kind selects the structural family of a benchmark.
type Kind uint8

// Benchmark families.
const (
	// KindDataParallel is the barrier-phased family.
	KindDataParallel Kind = iota
	// KindTaskQueue is the lock-dispensed task family.
	KindTaskQueue
	// KindPipeline is the queue-connected stage family.
	KindPipeline
	// KindTrace replays a recorded binary op trace (internal/trace's file
	// format) instead of generating programs: the per-thread streams, the
	// sequential reference and the machine registrations all come from the
	// trace file. Trace specs are built with TraceSpec, never from JSON —
	// a JSON body cannot carry the trace data.
	KindTrace
)

// StageSpec describes one pipeline stage.
type StageSpec struct {
	// Weight is the stage's share of per-item work (weights are normalized).
	Weight float64 `json:"weight"`
	// Serial pins the stage to exactly one thread (ferret's input/output).
	Serial bool `json:"serial,omitempty"`
}

// Spec is the behavioural description of one benchmark analogue. It is also
// the serializable bring-your-own-benchmark input: the JSON form produced by
// encoding/json (snake_case keys, kind as a string) is what ParseSpec reads,
// what the speedup-stack CLI accepts via -spec, and what the speedupd
// service accepts inline.
type Spec struct {
	// Name and Suite identify the benchmark (suite naming follows the
	// paper: splash2, parsec_small, parsec_medium, rodinia). Custom specs
	// may leave Suite empty.
	Name  string `json:"name"`
	Suite string `json:"suite,omitempty"`
	Kind  Kind   `json:"kind"`

	// --- Work volume -----------------------------------------------------

	// ArrayBytes is the total private-data footprint, partitioned among
	// threads (each thread sweeps its slice). For pipelines it is the
	// per-item data region footprint.
	ArrayBytes int64 `json:"array_bytes,omitempty"`
	// SweepsPerPhase is how many times a thread walks its slice per phase;
	// values above 1 create temporal reuse, which turns shared-LLC
	// thrashing into negative interference (the private ATD would hit).
	SweepsPerPhase int `json:"sweeps_per_phase,omitempty"`
	// Phases is the number of barrier-separated phases.
	Phases int `json:"phases,omitempty"`
	// InstrPerAccess is the computation between memory accesses, the
	// memory-intensity knob.
	InstrPerAccess int `json:"instr_per_access,omitempty"`

	// --- Memory behaviour -------------------------------------------------

	// StoreFrac is the fraction of private accesses that are stores.
	StoreFrac float64 `json:"store_frac,omitempty"`
	// SharedBytes sizes the read-mostly shared region.
	SharedBytes int64 `json:"shared_bytes,omitempty"`
	// SharedFrac is the fraction of accesses that target the shared region;
	// cross-thread reuse there produces positive interference.
	SharedFrac float64 `json:"shared_frac,omitempty"`
	// SharedStoreFrac is the fraction of shared accesses that are stores;
	// they trigger invalidations and coherence misses.
	SharedStoreFrac float64 `json:"shared_store_frac,omitempty"`
	// RandomPrivate/RandomShared choose random addressing instead of
	// streaming within the respective regions.
	RandomPrivate bool `json:"random_private,omitempty"`
	RandomShared  bool `json:"random_shared,omitempty"`

	// --- Parallel structure ------------------------------------------------

	// EffectiveParallelism caps the useful thread count: work shares are
	// skewed so that speedup saturates near this value, producing the
	// yield-dominated profiles of Figure 6. Zero means perfectly balanced.
	EffectiveParallelism float64 `json:"effective_parallelism,omitempty"`
	// CSPerThreadPerPhase critical sections per thread and phase.
	CSPerThreadPerPhase int `json:"cs_per_thread_per_phase,omitempty"`
	// CSInstr is the computation inside a critical section (work that also
	// exists in the sequential version).
	CSInstr int `json:"cs_instr,omitempty"`
	// NumLocks is the lock granularity (1 = one global lock).
	NumLocks int `json:"num_locks,omitempty"`

	// --- Task-queue family -------------------------------------------------

	// Items is the total number of task items (task-queue and pipeline).
	Items int `json:"items,omitempty"`
	// ItemInstr is the computation per item.
	ItemInstr int `json:"item_instr,omitempty"`
	// ItemAccesses is the number of memory accesses per item.
	ItemAccesses int `json:"item_accesses,omitempty"`
	// DispatchInstr is the serial work under the dispatch lock per item
	// (parallelization overhead: it does not exist sequentially).
	DispatchInstr int `json:"dispatch_instr,omitempty"`

	// --- Pipeline family ---------------------------------------------------

	// Stages describes the pipeline stages.
	Stages []StageSpec `json:"stages,omitempty"`
	// QueueCap is the bounded-queue capacity between stages (0 =
	// syncprim.DefaultQueueCap).
	QueueCap int `json:"queue_cap,omitempty"`

	// --- Overheads and library behaviour ------------------------------------

	// OverheadFrac adds this fraction of extra instructions in the parallel
	// version only (thread management, recomputation, lock handling),
	// calibrated at 16 threads and scaled linearly with the thread count
	// (communication and recomputation grow with parallelism). The
	// accounting hardware cannot see it; it surfaces as estimation error,
	// exactly as in the paper's Section 6 discussion.
	OverheadFrac float64 `json:"overhead_frac,omitempty"`
	// LockGrace/BarrierGrace override the sync library's spin-then-yield
	// thresholds (cycles); zero keeps the machine default. SPLASH-2-style
	// pure spinning uses a very large LockGrace.
	LockGrace    uint64 `json:"lock_grace,omitempty"`
	BarrierGrace uint64 `json:"barrier_grace,omitempty"`

	// Seed is the base RNG seed; every derived generator seeds from it.
	Seed uint64 `json:"seed,omitempty"`

	// --- Trace replay -------------------------------------------------------

	// TraceHash is the content hash (lowercase hex sha256) of the recorded
	// trace a KindTrace workload replays. TraceSpec sets it from the decoded
	// trace; being part of the canonical spec, it carries the trace's
	// identity into Fingerprint, so traces ride the same memo, cache and
	// fleet-routing keys as generated workloads.
	TraceHash string `json:"trace_hash,omitempty"`

	// traceData is the decoded trace backing a KindTrace spec. Only
	// TraceSpec sets it; it is invisible to JSON (a parsed spec of kind
	// "trace" fails validation with an actionable error) and survives the
	// value copies the engine makes during resolution.
	traceData *trace.Data
}

// Validation bounds. They are generous (every registry analogue sits far
// inside them) but keep a parsed spec inside what the simulator and the
// generators handle: no division by zero, no overflowing uint32 op fields,
// no effectively-unbounded simulations from a single HTTP request.
const (
	maxDataBytes = 4 << 30 // ArrayBytes, SharedBytes
	maxCount     = 1 << 20 // Phases, SweepsPerPhase, ItemAccesses, CSPerThreadPerPhase
	maxInstr     = 1 << 30 // per-op instruction fields (must fit uint32 bursts)
	maxItems     = 1 << 26 // task/pipeline items
	maxLocks     = 1 << 16 // NumLocks
	maxStages    = 64      // pipeline stages
	maxEffPar    = 4096    // EffectiveParallelism
	minEffPar    = 0.1     // smallest non-zero EffectiveParallelism
	maxStageWT   = 1e6     // single stage weight
)

// Validate checks the spec for consistency. Errors name the offending field
// and the accepted range, so a rejected bring-your-own-benchmark spec tells
// its author exactly what to fix.
func (s Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("workload %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("workload spec: name is required (it labels reports and logs)")
	}
	switch s.Kind {
	case KindDataParallel:
		if s.ArrayBytes < lineBytes {
			return fail("data-parallel needs array_bytes >= %d (one cache line), got %d", lineBytes, s.ArrayBytes)
		}
		if s.SweepsPerPhase <= 0 || s.Phases <= 0 {
			return fail("data-parallel needs sweeps_per_phase >= 1 and phases >= 1, got %d and %d",
				s.SweepsPerPhase, s.Phases)
		}
		if s.SweepsPerPhase > maxCount || s.Phases > maxCount {
			return fail("sweeps_per_phase and phases must be <= %d", maxCount)
		}
	case KindTaskQueue:
		if s.Items <= 0 || s.ItemInstr <= 0 {
			return fail("task-queue needs items >= 1 and item_instr >= 1, got %d and %d", s.Items, s.ItemInstr)
		}
	case KindPipeline:
		if s.Items <= 0 {
			return fail("pipeline needs items >= 1, got %d", s.Items)
		}
		if len(s.Stages) < 2 {
			return fail("pipeline needs >= 2 stages, got %d", len(s.Stages))
		}
		if len(s.Stages) > maxStages {
			return fail("pipeline supports at most %d stages, got %d", maxStages, len(s.Stages))
		}
		for i, st := range s.Stages {
			if !(st.Weight > 0) || st.Weight > maxStageWT { // !(>0) also catches NaN
				return fail("stage %d weight must be in (0, %g], got %v", i, float64(maxStageWT), st.Weight)
			}
		}
	case KindTrace:
		if s.traceData == nil {
			return fail("kind \"trace\" replays a recorded binary op trace and must be built from one" +
				" (record with speedup-stack -record or speedupstack.RecordTrace, then load the file;" +
				" a JSON spec cannot carry trace data)")
		}
		if s.TraceHash != s.traceData.HashHex() {
			return fail("trace_hash %q does not match the attached trace (%s)", s.TraceHash, s.traceData.HashHex())
		}
	default:
		return fail("unknown kind %d (want data_parallel, task_queue or pipeline)", s.Kind)
	}

	// Bounds shared by every family.
	if s.ArrayBytes < 0 || s.ArrayBytes > maxDataBytes {
		return fail("array_bytes must be in [0, %d], got %d", int64(maxDataBytes), s.ArrayBytes)
	}
	if s.SharedBytes < 0 || s.SharedBytes > maxDataBytes {
		return fail("shared_bytes must be in [0, %d], got %d", int64(maxDataBytes), s.SharedBytes)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"store_frac", s.StoreFrac},
		{"shared_frac", s.SharedFrac},
		{"shared_store_frac", s.SharedStoreFrac},
		{"overhead_frac", s.OverheadFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) { // negated form also catches NaN
			return fail("%s must be a fraction in [0, 1], got %v", f.name, f.v)
		}
	}
	if s.SharedFrac > 0 && s.SharedBytes < lineBytes {
		return fail("shared_frac %v needs shared_bytes >= %d (one cache line), got %d",
			s.SharedFrac, lineBytes, s.SharedBytes)
	}
	if e := s.EffectiveParallelism; !(e == 0 || (e >= minEffPar && e <= maxEffPar)) {
		return fail("effective_parallelism must be 0 (balanced) or in [%g, %g], got %v",
			minEffPar, float64(maxEffPar), e)
	}
	for _, n := range []struct {
		name string
		v    int
		max  int
	}{
		{"instr_per_access", s.InstrPerAccess, maxInstr},
		{"cs_instr", s.CSInstr, maxInstr},
		{"item_instr", s.ItemInstr, maxInstr},
		{"dispatch_instr", s.DispatchInstr, maxInstr},
		{"cs_per_thread_per_phase", s.CSPerThreadPerPhase, maxCount},
		{"num_locks", s.NumLocks, maxLocks},
		{"items", s.Items, maxItems},
		{"item_accesses", s.ItemAccesses, maxCount},
		{"queue_cap", s.QueueCap, trace.MaxQueueCap}, // a valid spec always records
	} {
		if n.v < 0 || n.v > n.max {
			return fail("%s must be in [0, %d], got %d", n.name, n.max, n.v)
		}
	}
	if s.LockGrace > trace.MaxGrace || s.BarrierGrace > trace.MaxGrace {
		return fail("lock_grace and barrier_grace must be <= %d cycles", uint64(trace.MaxGrace))
	}
	return nil
}

// Canonical returns the spec with every field the Kind's generators do not
// read zeroed. Program generation is invariant under canonicalization — the
// canonical spec produces bit-identical op streams at every thread count —
// so it is the right input for Fingerprint: two specs that differ only in
// inert fields describe the same workload and hash identically.
func (s Spec) Canonical() Spec {
	c := s
	if c.SharedFrac == 0 {
		// No shared accesses: the shared-region shape is inert.
		c.SharedBytes, c.SharedStoreFrac, c.RandomShared = 0, 0, false
	}
	if c.NumLocks == 1 {
		// One lock and "unset" route every critical section to the same lock.
		c.NumLocks = 0
	}
	switch c.Kind {
	case KindDataParallel:
		c.Items, c.ItemInstr, c.ItemAccesses, c.DispatchInstr = 0, 0, 0, 0
		c.Stages, c.QueueCap = nil, 0
		if c.CSPerThreadPerPhase == 0 || c.CSInstr == 0 {
			// Critical sections fire only when both knobs are set.
			c.CSPerThreadPerPhase, c.CSInstr, c.NumLocks = 0, 0, 0
		}
	case KindTaskQueue:
		c.SweepsPerPhase, c.Phases, c.InstrPerAccess = 0, 0, 0
		c.RandomPrivate, c.RandomShared = false, false // addressing is fixed per family
		c.CSPerThreadPerPhase = 0
		c.Stages, c.QueueCap = nil, 0
		if c.CSInstr == 0 {
			c.NumLocks = 0
		}
	case KindPipeline:
		c.SweepsPerPhase, c.Phases, c.InstrPerAccess = 0, 0, 0
		c.RandomPrivate, c.RandomShared = false, false
		c.SharedStoreFrac = 0 // pipeline shared accesses use StoreFrac
		c.EffectiveParallelism = 0
		c.CSPerThreadPerPhase, c.CSInstr, c.NumLocks, c.DispatchInstr = 0, 0, 0, 0
	case KindTrace:
		// Replay reads nothing but the trace itself and the grace
		// overrides: the generator knobs are all inert, and the identity
		// is exactly {kind, trace_hash, lock_grace, barrier_grace}.
		d := c.traceData
		c = Spec{Name: c.Name, Suite: c.Suite, Kind: KindTrace, TraceHash: c.TraceHash,
			LockGrace: c.LockGrace, BarrierGrace: c.BarrierGrace}
		c.traceData = d
	}
	return c
}

// overheadAt returns the effective overhead fraction for a run with the
// given thread count (OverheadFrac is the calibration point at
// nominalThreads). The pipeline generator calls it per item, so it takes a
// pointer: a value receiver copies the whole Spec on every call.
func (s *Spec) overheadAt(threads int) float64 {
	return s.OverheadFrac * float64(threads) / nominalThreads
}

// TunePolicy applies the benchmark's synchronization-library overrides to a
// machine policy.
func (s Spec) TunePolicy(p syncprim.Policy) syncprim.Policy {
	if s.LockGrace != 0 {
		p.LockSpinGrace = s.LockGrace
	}
	if s.BarrierGrace != 0 {
		p.BarrierSpinGrace = s.BarrierGrace
	}
	return p
}

// Parallel builds the per-thread programs for a run with threads threads.
func (s Spec) Parallel(threads int) ([]trace.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		return nil, fmt.Errorf("workload %s: need at least one thread", s.Name)
	}
	switch s.Kind {
	case KindDataParallel:
		return s.dataParallelPrograms(threads), nil
	case KindTaskQueue:
		return s.taskQueuePrograms(threads), nil
	case KindPipeline:
		return s.pipelinePrograms(threads), nil
	case KindTrace:
		return s.tracePrograms(threads)
	}
	return nil, fmt.Errorf("workload %s: unknown kind", s.Name)
}

// Sequential builds the single-threaded reference program executing the
// same total work without synchronization or parallelization overhead.
func (s Spec) Sequential() (trace.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindDataParallel:
		return s.dataParallelSequential(), nil
	case KindTaskQueue:
		return s.taskQueueSequential(), nil
	case KindPipeline:
		return s.pipelineSequential(), nil
	case KindTrace:
		return s.traceSequential()
	}
	return nil, fmt.Errorf("workload %s: unknown kind", s.Name)
}

// ErrBadTrace marks a replayed trace whose ops no run can have recorded (an
// Unlock of a lock not held): the upload is at fault, not the simulator.
var ErrBadTrace = errors.New("trace breaks the synchronization library's rules")

// Simulate is the one step from a spec to a simulation, shared by the sweep
// engine (cells, sequential references, interval runs) and Record. With
// threads > 0 it runs the parallel programs of s on cores cores of cfg's
// machine, with the family's machine registrations; threads == 0 selects
// the single-threaded reference instead: cfg.Sequential(), accounting
// hardware off, because that run contributes only its Tp and accounting
// never affects timing. Either way the machine carries the spec's
// synchronization-library policy. wrap, if non-nil, replaces each program
// before the run (Record's recorders); opts are applied after the
// registrations. A simulator failure is labelled with the workload and the
// run shape; a spec that cannot build its programs fails bare. A replayed
// trace that breaks the sync library's rules fails with ErrBadTrace.
func Simulate(cfg sim.Config, s Spec, threads, cores int, wrap func(trace.Program) trace.Program, opts ...sim.Option) (res sim.Result, err error) {
	if s.Kind == KindTrace { // a generator's panic is a bug, an upload's is not
		defer func() {
			if p := recover(); p != nil {
				res, err = sim.Result{}, fmt.Errorf("%s: %w: %v", Benchmark{Spec: s}.FullName(), ErrBadTrace, p)
			}
		}()
	}
	var progs []trace.Program
	if threads == 0 {
		var p trace.Program
		p, err = s.Sequential()
		progs, cfg = []trace.Program{p}, cfg.Sequential()
		opts = append(opts, sim.WithoutAccounting())
	} else {
		progs, err = s.Parallel(threads)
		cfg = cfg.WithCores(cores)
		opts = append(s.PipelineOptions(threads), opts...)
	}
	if err != nil {
		return sim.Result{}, err
	}
	if wrap != nil {
		for i, p := range progs {
			progs[i] = wrap(p)
		}
	}
	cfg.Policy = s.TunePolicy(cfg.Policy)
	res, err = sim.Run(cfg, progs, opts...)
	if err == nil {
		return res, nil
	}
	name := Benchmark{Spec: s}.FullName()
	if threads == 0 {
		return sim.Result{}, fmt.Errorf("%s sequential: %w", name, err)
	}
	return sim.Result{}, fmt.Errorf("%s x%d: %w", name, threads, err)
}

// Address-space layout. Regions are separated far enough that no benchmark
// configuration can overlap them.
const (
	privateBase = 0x1000_0000_0000
	sharedBase  = 0x2000_0000_0000
	lineBytes   = 64
)

// workShares returns each thread's share of the per-phase work, skewed so
// that aggregate speedup saturates near EffectiveParallelism. Shares follow
// share_i ∝ (1 - i/T)^gamma with gamma = T/E - 1; ranks rotate across
// phases so no single thread is permanently heavy.
func workShares(threads int, effective float64) []float64 {
	shares := make([]float64, threads)
	if effective <= 0 || effective >= float64(threads) {
		for i := range shares {
			shares[i] = 1 / float64(threads)
		}
		return shares
	}
	gamma := float64(threads)/effective - 1
	sum := 0.0
	for i := range shares {
		base := 1 - float64(i)/float64(threads)
		shares[i] = pow(base, gamma)
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// pow computes base^exp for positive base without importing math (keeps the
// generator dependency-free and deterministic across platforms).
func pow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	// exp = int + frac; use repeated squaring for the integer part and a
	// short ln/exp series for the fractional part.
	n := int(exp)
	frac := exp - float64(n)
	result := 1.0
	b := base
	for n > 0 {
		if n&1 == 1 {
			result *= b
		}
		b *= b
		n >>= 1
	}
	if frac > 1e-9 {
		result *= expf(frac * lnf(base))
	}
	return result
}

func lnf(x float64) float64 {
	// ln(x) via atanh identity: ln(x) = 2*atanh((x-1)/(x+1)).
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for k := 0; k < 40; k++ {
		sum += term / float64(2*k+1)
		term *= y2
	}
	return 2 * sum
}

func expf(x float64) float64 {
	sum := 1.0
	term := 1.0
	for k := 1; k < 30; k++ {
		term *= x / float64(k)
		sum += term
	}
	return sum
}

// splitInts partitions total into len(shares) integer parts proportional to
// shares, summing exactly to total (remainder goes to the largest share).
func splitInts(total int, shares []float64) []int {
	parts := make([]int, len(shares))
	assigned := 0
	largest := 0
	for i, sh := range shares {
		parts[i] = int(float64(total) * sh)
		assigned += parts[i]
		if shares[i] > shares[largest] {
			largest = i
		}
	}
	parts[largest] += total - assigned
	return parts
}
