package sim

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/syncprim"
	"repro/internal/trace"
)

// Result summarizes one simulation run.
type Result struct {
	// Cores and Threads describe the run shape.
	Cores   int
	Threads int
	// Tp is the parallel-section execution time: the finish time of the
	// slowest thread.
	Tp uint64
	// PerThread holds the raw accounting counters, one per software thread.
	PerThread []core.ThreadCounters
	// Estimated is the component decomposition the accounting hardware
	// produces (sampled ATD, ORA, Tian detector, OS yield bookkeeping).
	Estimated core.Components
	// Oracle replaces what hardware cannot see with the simulator's
	// omniscient view (true spin, coherence, parallelization overhead). Its
	// LLC and memory terms are Estimated's, so it is the ground truth exactly
	// when the run's ATDSampleShift is 0: accounting never affects timing, so
	// that run of the same cell is the reference for any other shift
	// (`experiments calibrate` prints it).
	Oracle core.Components
	// TotalOps counts the trace operations the machine consumed from its
	// programs — the unit simulator throughput (ops/sec) is measured in.
	// Counting happens at batch granularity; on completed runs every
	// counted op was executed (program streams end inside their batch).
	TotalOps uint64
	// Intervals holds the cumulative accounting snapshots taken every
	// WithIntervals period of committed ops plus one at completion; nil
	// when interval accounting is disabled. Every other Result field is
	// identical with or without it — snapshots never affect timing.
	Intervals []core.IntervalSnapshot
}

// Stack assembles the estimated speedup stack of the run. If ts (the
// single-threaded execution time of the same work) is non-zero the stack
// also records the actual speedup Ts/Tp.
func (r Result) Stack(ts uint64) core.Stack {
	s := core.Stack{N: r.Threads, Tp: r.Tp, Components: r.Estimated}
	if ts != 0 {
		s.ActualSpeedup = float64(ts) / float64(r.Tp)
	}
	return s
}

// result gathers counters from the machine after completion.
func (m *Machine) result() Result {
	r := Result{
		Cores:     m.cfg.Cores,
		Threads:   len(m.threads),
		TotalOps:  m.ops,
		PerThread: make([]core.ThreadCounters, len(m.threads)),
	}
	for i := range m.threads {
		t := &m.threads[i]
		r.PerThread[i] = t.ct
		if t.ct.FinishTime > r.Tp {
			r.Tp = t.ct.FinishTime
		}
	}
	r.Estimated = core.EstimateComponents(r.Tp, r.PerThread)
	r.Oracle = core.OracleComponents(r.Tp, r.PerThread,
		1/float64(cpu.DispatchWidth))
	if m.snapEvery != 0 {
		r.Intervals = m.finishIntervals(r.Tp)
	}
	return r
}

// Option customizes a machine before it runs.
type Option func(*Machine)

// WithQueue pre-creates bounded queue id with the given capacity.
func WithQueue(id uint32, capacity int) Option {
	return func(m *Machine) {
		m.queues = grow(m.queues, id)
		m.queues[id] = syncprim.NewQueue(capacity)
	}
}

// WithBarrier pre-creates barrier id spanning parties threads (default is
// all threads).
func WithBarrier(id uint32, parties int) Option {
	return func(m *Machine) {
		m.barriers = grow(m.barriers, id)
		m.barriers[id] = syncprim.NewBarrier(parties)
	}
}

// WithoutAccounting disables the interference-accounting hardware (the
// per-core ATD walks) for the run. Accounting never affects timing — the
// directories only feed the per-thread interference counters — so Tp and
// every substrate statistic are unchanged; only the ATD-derived counters
// (inter-thread hits and miss attributions) read zero. Use
// it for runs whose accounting nobody consumes: the sequential reference
// contributes only its execution time, and a single-core machine has no
// inter-thread interference to account in the first place.
func WithoutAccounting() Option {
	return func(m *Machine) { m.acct = false }
}

// Run executes progs to completion on a machine for cfg. Machines (and the
// multi-megabyte backing arrays inside them) are recycled through a
// process-wide pool keyed by what sizes that storage, so repeated runs —
// sweeps, service traffic, benchmarks — allocate almost nothing; results
// are identical to building a fresh machine every time.
func Run(cfg Config, progs []trace.Program, opts ...Option) (Result, error) {
	return defaultPool.Run(cfg, progs, opts...)
}

// RunSequential executes prog alone on cfg's sequential machine
// (Config.Sequential) with the accounting hardware off; its Tp is the
// single-threaded reference time Ts of the speedup definition, Formula (1).
func RunSequential(cfg Config, prog trace.Program, opts ...Option) (Result, error) {
	return Run(cfg.Sequential(), []trace.Program{prog}, append(opts, WithoutAccounting())...)
}
