package core

import "math/bits"

// Time-resolved accounting: the simulator can snapshot the cumulative
// per-thread counters every N committed trace operations, and this file
// turns a sequence of such snapshots into per-interval component
// decompositions that sum — exactly, in integer arithmetic — to the
// whole-run decomposition.
//
// The trick that makes the sum exact is telescoping: every snapshot is
// evaluated as a *cumulative* integer estimate C_k (the estimator of
// Section 4 applied to the counters accumulated so far, with the
// extrapolation factors frozen from the end-of-run totals), and interval k
// is defined as the difference C_k − C_{k−1}. Summing the differences
// cancels every intermediate term and leaves C_K − C_0 = C_K, the aggregate
// — with no floating-point rounding anywhere in the chain.

// IntervalSnapshot is one cumulative accounting snapshot taken while a run
// is in flight: the per-thread counters, the run's progress in committed
// trace operations, and the furthest thread-local cycle observed. Snapshots
// are pure reads of the accounting state — taking them never perturbs
// timing — and each one extends the previous (counters are cumulative, not
// per-interval deltas).
type IntervalSnapshot struct {
	// Ops is the cumulative number of committed trace operations.
	Ops uint64
	// Time is the furthest thread-local cycle any thread had reached; the
	// final snapshot's Time equals the run's Tp.
	Time uint64
	// Threads holds the cumulative per-thread counters at the snapshot.
	Threads []ThreadCounters
	// Finished marks threads that had already executed their KindEnd.
	Finished []bool
}

// IntComponents is the integer-cycle counterpart of Components, used for
// time-resolved stacks where per-interval values must sum exactly to the
// aggregate. Values are signed: a per-interval delta can be transiently
// negative (the memory component deducts the extrapolated inter-thread-miss
// share, so reclassification between intervals can dip below zero) even
// though every cumulative value is non-negative. Renderers clamp negatives
// to zero visually; the data keeps the exact value so sums stay exact.
type IntComponents struct {
	// NegLLC is negative LLC interference in cycles.
	NegLLC int64 `json:"neg_llc"`
	// PosLLC is positive LLC interference in cycles.
	PosLLC int64 `json:"pos_llc"`
	// NegMem is negative memory-subsystem interference in cycles.
	NegMem int64 `json:"memory"`
	// Spin is detected spin time in cycles.
	Spin int64 `json:"spinning"`
	// Yield is OS-recorded descheduled time in cycles.
	Yield int64 `json:"yielding"`
	// Imbalance is end-of-run waiting attributed so far, in cycles.
	Imbalance int64 `json:"imbalance"`
}

// Add returns the componentwise sum c + o.
func (c IntComponents) Add(o IntComponents) IntComponents {
	c.NegLLC += o.NegLLC
	c.PosLLC += o.PosLLC
	c.NegMem += o.NegMem
	c.Spin += o.Spin
	c.Yield += o.Yield
	c.Imbalance += o.Imbalance
	return c
}

// Sub returns the componentwise difference c − o.
func (c IntComponents) Sub(o IntComponents) IntComponents {
	c.NegLLC -= o.NegLLC
	c.PosLLC -= o.PosLLC
	c.NegMem -= o.NegMem
	c.Spin -= o.Spin
	c.Yield -= o.Yield
	c.Imbalance -= o.Imbalance
	return c
}

// mulDiv returns x*num/den using a 128-bit intermediate product, so the
// extrapolations below cannot overflow (cycle counters and access counts
// each fit in 64 bits; their product does not). den must be non-zero. A
// quotient exceeding 64 bits is clamped — unreachable for physical counter
// values, where the result is again a cycle count.
func mulDiv(x, num, den uint64) uint64 {
	hi, lo := bits.Mul64(x, num)
	if hi >= den {
		return ^uint64(0)
	}
	q, _ := bits.Div64(hi, lo, den)
	return q
}

// CumulativeComponents evaluates the Section 4 estimator on the cumulative
// counters cur of an in-flight snapshot, in pure integer arithmetic. The
// two run-level extrapolations — the ATD sampling factor and the average
// miss penalty — are frozen from fin, the end-of-run counters of the same
// threads, so the estimate is linear in the integer counters and the final
// snapshot's cumulative estimate is the run's aggregate. finished marks
// threads that had completed by the snapshot; tmax is the snapshot's
// furthest thread-local cycle (imbalance accrues as finished threads wait
// for running ones, reaching the aggregate Σ(Tp−FinishTime) at the end).
//
// Differences from the float estimator (EstimateComponents): divisions
// floor instead of rounding in float64, and no pathological-extrapolation
// clamp is applied — both bounded, documented deviations that buy the exact
// telescoping-sum property time-resolved stacks are built on.
func CumulativeComponents(cur, fin []ThreadCounters, finished []bool, tmax uint64) IntComponents {
	var c IntComponents
	for i := range cur {
		t, f := &cur[i], &fin[i]
		// Frozen run-level sampling factor (Section 4.2): LLC accesses over
		// sampled accesses, as an exact rational num/den.
		num, den := f.LLCAccesses, f.SampledATDAccesses
		if num == 0 || den == 0 {
			num, den = 1, 1
		}
		c.NegLLC += int64(mulDiv(t.SampledInterThreadMissStall, num, den))
		if f.LLCLoadMisses > 0 {
			// Positive interference: sampled inter-thread hits, extrapolated
			// by the sampling factor and weighted by the frozen average miss
			// penalty StallLLCLoadMiss/LLCLoadMisses.
			hits := mulDiv(t.SampledInterThreadHits, num, den)
			c.PosLLC += int64(mulDiv(hits, f.StallLLCLoadMiss, f.LLCLoadMisses))
		}
		// Memory interference minus the extrapolated share already charged to
		// NegLLC; floored at zero per thread, like the float estimator.
		mi := int64(t.MemInterferenceEst) -
			int64(mulDiv(t.SampledInterThreadMissMemInterf, num, den))
		if mi > 0 {
			c.NegMem += mi
		}
		c.Spin += int64(t.SpinDetected)
		c.Yield += int64(t.YieldCycles)
		if finished[i] && tmax > t.FinishTime {
			c.Imbalance += int64(tmax - t.FinishTime)
		}
	}
	return c
}
