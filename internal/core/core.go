// Package core implements the paper's primary contribution: per-thread
// cycle-component accounting and the speedup stack (Sections 2 and 4).
//
// A multi-threaded run of duration Tp produces, per thread i, a set of
// overhead cycle components O_{i,j} (negative LLC interference, negative
// memory interference, spinning, yielding, imbalance) and a positive LLC
// interference component P_i. Estimated single-threaded time follows
// Formula (2):
//
//	T̂s = Σ_i ( Tp − Σ_j O_{i,j} + P_i )
//
// and the estimated speedup, Formula (4), rearranges into the stack:
//
//	Ŝ = N − Σ_i Σ_j O_{i,j}/Tp + Σ_i P_i/Tp
//
// The package holds the raw per-thread counters the accounting hardware
// produces, the software post-processing that turns them into components
// (sampling-factor extrapolation for inter-thread misses, average-miss-
// penalty interpolation for inter-thread hits), the stack type itself, and
// the hardware cost model of Section 4.7.
package core

// ThreadCounters are the raw per-thread event counts gathered during one
// multi-threaded run. Fields prefixed "Oracle" come from the simulator's
// omniscient view and feed OracleComponents only; the estimator never
// reads them.
type ThreadCounters struct {
	// OverheadInstrs counts the executed instructions injected by
	// parallelization (ground truth; invisible to the accounting hardware).
	OverheadInstrs uint64
	// FinishTime is the cycle at which the thread completed its work.
	FinishTime uint64

	// LLCAccesses counts L1-miss accesses reaching the shared LLC.
	LLCAccesses uint64
	// LLCLoadMisses counts blocking load misses in the LLC.
	LLCLoadMisses uint64
	// StallLLCLoadMiss is the total cycles the core stalled on LLC load
	// misses; divided by LLCLoadMisses it yields the average miss penalty
	// used for positive-interference interpolation (Section 4.2).
	StallLLCLoadMiss uint64

	// SampledATDAccesses counts accesses that fell into ATD-sampled sets.
	SampledATDAccesses uint64
	// SampledInterThreadMissStall is the stall of sampled LLC misses that
	// hit in the private ATD (negative interference, pre-extrapolation).
	SampledInterThreadMissStall uint64
	// SampledInterThreadHits counts sampled LLC hits that missed the ATD
	// (positive interference, pre-extrapolation and pre-interpolation).
	SampledInterThreadHits uint64

	// MemInterferenceEst is the memory-subsystem interference the hardware
	// charges on blocking misses: bus/bank waits caused by other cores and
	// ORA-flagged row conflicts, scaled by the exposed-stall fraction. The
	// ORA's verdict is the ground truth (package mem), so the oracle charges
	// the same.
	MemInterferenceEst uint64
	// SampledInterThreadMissMemInterf is the memory interference portion of
	// sampled inter-thread misses. Those misses charge their whole stall to
	// negative LLC interference, so their memory interference must be
	// deducted from the memory component to avoid double counting.
	SampledInterThreadMissMemInterf uint64

	// SpinDetected is the spin time charged by the Tian detector.
	SpinDetected uint64
	// YieldCycles is the OS-recorded descheduled time (blocked beyond the
	// spin grace period, wake latency, and ready-queue waiting).
	YieldCycles uint64

	// DetailedLLCAccesses counts the LLC accesses that took the simulator's
	// detailed walk: every one in exact mode, the detailed-set subset in
	// fast mode, where LLCAccesses/DetailedLLCAccesses extrapolates the
	// coherence stall only that walk observes.
	DetailedLLCAccesses uint64

	// Oracle counterparts of what the hardware cannot attribute exactly.
	OracleSpinCycles     uint64
	OracleCoherenceStall uint64
}

// Components aggregates the speedup-stack cycle components across all
// threads of a run. Values are in cycles; dividing by Tp converts them into
// speedup units.
type Components struct {
	// NegLLC is negative LLC interference: stalls on misses that a private
	// LLC would have avoided.
	NegLLC float64
	// PosLLC is positive LLC interference: avoided misses thanks to lines
	// shared threads brought in.
	PosLLC float64
	// NegMem is negative memory-subsystem interference (bus, bank, row).
	NegMem float64
	// Spin is time spent actively spinning on locks and barriers.
	Spin float64
	// Yield is time spent descheduled while waiting on synchronization.
	Yield float64
	// Imbalance is end-of-parallel-section waiting for the slowest thread.
	Imbalance float64
	// Coherence is the exposed stall of coherence misses. Ground truth
	// only: the estimator leaves it at zero per Section 4.5.
	Coherence float64
	// ParallelOverhead is the cycle cost of parallelization-overhead
	// instructions. Ground truth only: not measurable in hardware per
	// Section 3.5.
	ParallelOverhead float64
}

// OverheadTotal sums the O_{i,j} terms of Formula (4) — everything except
// positive interference.
func (c Components) OverheadTotal() float64 {
	return c.NegLLC + c.NegMem + c.Spin + c.Yield + c.Imbalance +
		c.Coherence + c.ParallelOverhead
}

// Net returns the net LLC interference (negative minus positive), the white
// component of the paper's Figure 5.
func (c Components) Net() float64 { return c.NegLLC - c.PosLLC }

// Stack is one speedup stack: the decomposition of the ideal speedup N into
// the estimated speedup plus its scaling delimiters.
type Stack struct {
	// N is the number of threads (= stack height).
	N int
	// Tp is the multi-threaded execution time in cycles.
	Tp uint64
	// Components holds the aggregated cycle components.
	Components Components
	// ActualSpeedup is Ts/Tp when a single-threaded reference time is
	// known; zero otherwise. It is not part of the estimate.
	ActualSpeedup float64
}

// Estimated returns Ŝ per Formula (4).
func (s Stack) Estimated() float64 {
	return float64(s.N) - s.Components.OverheadTotal()/float64(s.Tp) +
		s.Components.PosLLC/float64(s.Tp)
}

// Base returns the base speedup per Formula (5): N minus all overhead
// components, not counting positive interference.
func (s Stack) Base() float64 {
	return float64(s.N) - s.Components.OverheadTotal()/float64(s.Tp)
}

// Error returns the validation error of Formula (6): (Ŝ − S)/N. It panics
// when no actual speedup was recorded.
func (s Stack) Error() float64 {
	if s.ActualSpeedup == 0 {
		panic("core: Stack.Error without recorded actual speedup")
	}
	return (s.Estimated() - s.ActualSpeedup) / float64(s.N)
}

// observedComponents sums the terms the accounting hardware and the ground
// truth derive from the same counters: LLC interference (sampled ATD events
// extrapolated by the run-time sampling factor, positive interference
// interpolated with the average miss penalty), memory interference (the
// ORA's, less the extrapolated share of inter-thread misses, whose whole
// stall already sits in NegLLC), yielding (the OS's own bookkeeping) and
// imbalance (finish times against tp, the duration of the parallel section).
func observedComponents(tp uint64, threads []ThreadCounters) Components {
	var c Components
	for i := range threads {
		t := &threads[i]
		factor := samplingFactor(t)
		c.NegLLC += float64(t.SampledInterThreadMissStall) * factor
		c.PosLLC += float64(t.SampledInterThreadHits) * factor * avgMissPenalty(t)
		c.NegMem += max(float64(t.MemInterferenceEst)-float64(t.SampledInterThreadMissMemInterf)*factor, 0)
		c.Yield += float64(t.YieldCycles)
		if tp > t.FinishTime {
			c.Imbalance += float64(tp - t.FinishTime)
		}
	}
	return c
}

// EstimateComponents performs the software post-processing of Section 4 on
// what the accounting hardware counted: observedComponents plus the Tian
// detector's spin time.
func EstimateComponents(tp uint64, threads []ThreadCounters) Components {
	c := observedComponents(tp, threads)
	for i := range threads {
		c.Spin += float64(threads[i].SpinDetected)
	}
	return clampComponents(c, tp, len(threads))
}

// OracleComponents replaces what hardware cannot see with the simulator's
// omniscient view: true spin time, coherence stall and parallelization
// overhead (cyclesPerInstr, 1/dispatch width, converts overhead instructions
// to cycles). Its LLC and memory terms are observedComponents' own, so they
// are ground truth exactly when the ATD monitors every set the run walks:
// ATDSampleShift == 0 in exact mode.
func OracleComponents(tp uint64, threads []ThreadCounters, cyclesPerInstr float64) Components {
	c := observedComponents(tp, threads)
	for i := range threads {
		t := &threads[i]
		c.Spin += float64(t.OracleSpinCycles)
		// Exactly 1 in exact mode (x/x is 1.0 in IEEE arithmetic).
		detailed := 1.0
		if t.DetailedLLCAccesses != 0 {
			detailed = float64(t.LLCAccesses) / float64(t.DetailedLLCAccesses)
		}
		c.Coherence += float64(t.OracleCoherenceStall) * detailed
		c.ParallelOverhead += float64(t.OverheadInstrs) * cyclesPerInstr
	}
	return clampComponents(c, tp, len(threads))
}

// samplingFactor returns total LLC accesses divided by sampled accesses
// (Section 4.2), falling back to 1 when nothing was sampled.
func samplingFactor(t *ThreadCounters) float64 {
	if t.SampledATDAccesses == 0 || t.LLCAccesses == 0 {
		return 1
	}
	return float64(t.LLCAccesses) / float64(t.SampledATDAccesses)
}

// avgMissPenalty is the interpolation of Section 4.2: total LLC load-miss
// stall divided by the number of LLC load misses.
func avgMissPenalty(t *ThreadCounters) float64 {
	if t.LLCLoadMisses == 0 {
		return 0
	}
	return float64(t.StallLLCLoadMiss) / float64(t.LLCLoadMisses)
}

// clampComponents guards against pathological extrapolation: no single
// thread's overheads can exceed Tp, so the aggregate is capped at N×Tp.
func clampComponents(c Components, tp uint64, n int) Components {
	max := float64(tp) * float64(n)
	if c.OverheadTotal() > max {
		scale := max / c.OverheadTotal()
		c.NegLLC *= scale
		c.NegMem *= scale
		c.Spin *= scale
		c.Yield *= scale
		c.Imbalance *= scale
		c.Coherence *= scale
		c.ParallelOverhead *= scale
	}
	return c
}
