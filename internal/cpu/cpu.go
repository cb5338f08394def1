// Package cpu provides the mechanistic core timing model of the simulated
// CMP: a four-wide superscalar out-of-order core abstracted with interval
// analysis (Eyerman et al., TOCS 2009), the same first-order model the
// paper's accounting architecture assumes.
//
// The model's key abstractions:
//
//   - Dispatch: computation progresses at DispatchWidth instructions per
//     cycle in the absence of miss events.
//   - L1 hits are fully hidden by the out-of-order window (the paper makes
//     the same assumption to justify ignoring coherency misses on balanced
//     cores, Section 4.5).
//   - LLC hits expose a short, partially hidden stall.
//   - LLC load misses drain the window: the core stalls once the miss
//     blocks the ROB head, paying the full memory latency minus a fixed
//     overlap credit for the independent work behind the miss. Interference
//     is charged only for these blocking misses, mirroring Section 4.1.
//   - Store misses retire through the store buffer and do not stall the
//     core, but they do occupy the shared memory system.
//
// The paper evaluates one core (Section 5), so its costs are constants.
package cpu

// The paper's core: four-wide superscalar out-of-order.
const (
	// DispatchWidth is the sustained dispatch/issue width.
	DispatchWidth = 4
	// LLCHitStall is the exposed stall of an L1 miss that hits the LLC.
	LLCHitStall uint64 = 8
	// LLCMissBase is the fixed LLC-miss overhead (tag lookup, request
	// launch) added before the memory-system latency.
	LLCMissBase uint64 = 12
	// MLPOverlap is the fixed number of miss cycles hidden by out-of-order
	// execution (memory-level parallelism credit) on a blocking load miss.
	MLPOverlap uint64 = 24
	// CoherenceForwardStall is the extra exposed stall when the data must
	// be forwarded from a remote Modified line.
	CoherenceForwardStall uint64 = 16
	// UpgradeStall is the exposed stall of a store upgrade (S->M
	// invalidation round). Small: stores retire through the store buffer.
	UpgradeStall uint64 = 4
)

// ComputeCycles returns the cycles to dispatch instrs instructions of
// miss-free computation: ceil(instrs / DispatchWidth). It runs on every
// compute and memory op; the constant power-of-two divisor compiles to a
// shift.
func ComputeCycles(instrs uint64) uint64 {
	return (instrs + DispatchWidth - 1) / DispatchWidth
}

// BlockingMissStall returns the exposed stall of a blocking LLC load miss
// whose memory-system latency (queueing included) is memLatency.
func BlockingMissStall(memLatency uint64) uint64 {
	total := LLCMissBase + memLatency
	if total <= MLPOverlap {
		return 0
	}
	return total - MLPOverlap
}

// ExposedInterference scales raw interference cycles of a blocking miss by
// the fraction of the miss latency that was actually exposed, so that
// overlap hides interference and base latency proportionally. This keeps
// the accounted interference consistent with the charged stall.
func ExposedInterference(interference, memLatency uint64) uint64 {
	if interference == 0 {
		return 0
	}
	total := LLCMissBase + memLatency
	stall := BlockingMissStall(memLatency)
	if stall >= total {
		return interference
	}
	// Proportional attribution, rounding down.
	return interference * stall / total
}
