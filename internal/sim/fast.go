package sim

import "repro/internal/cpu"

// Fast mode (Config.Mode == ModeFast) carries the paper's one sampling
// decision from the ATD into the simulation itself: only the LLC sets the
// ATD samples (atd.Directory.SampledSet: set & (2^ATDSampleShift − 1) ==
// 0) — the "detailed" sets, a deterministic 1-in-2^ATDSampleShift stride —
// run the full L1/LLC/directory/DRAM model (memAccess, the same walk exact
// mode takes for every access), and only their misses generate memory
// traffic.
// Accesses to every other set never touch the cache arrays at all; their
// whole hierarchy outcome is extrapolated from the detailed sets:
//
//   - The L1 hit/miss outcome is predicted with a Bresenham-style
//     accumulator tracking this core's detailed-set L1 hit rate (predicted
//     hits cost nothing, exactly like real L1 hits; skipped-set store
//     upgrades are not modeled).
//   - A predicted L1 miss flows into a second Bresenham accumulator
//     tracking this core's detailed-set LLC hit rate, so predicted hits are
//     spread evenly through the access stream instead of bursting.
//   - A predicted LLC miss is charged this core's integer-average detailed
//     miss stall and memory interference; before any detailed miss exists
//     the stall falls back to the uncontended memory round trip
//     BlockingMissStall(RowHitCycles + BusCycles), a pure function of the
//     configuration.
//
// The sampled quantum is also coarser: fast mode multiplies the relaxed-
// synchronization quantum by fastQuantumScale, trading bounded extra skew
// for proportionally fewer scheduler sweeps.
//
// Counter semantics feed the unmodified estimator: LLCAccesses counts the
// full population (detailed and skipped) while the ATDs observe exactly
// the detailed sets — with accounting on, SampledATDAccesses equals
// DetailedLLCAccesses per thread — so the run-time sampling factor
// LLCAccesses/SampledATDAccesses extrapolates the interference counters to
// the full population through the paper's own Section 4.2 machinery. There
// is no second directory for ground truth: Result.Oracle's LLC terms are the
// estimator's, true for the detailed sets, and its coherence term is
// extrapolated by LLCAccesses/DetailedLLCAccesses in core.OracleComponents.
//
// Everything is a deterministic function of (config, workload): same
// inputs, byte-identical fast-mode results — just not exact-mode results.

// fastQuantumScale multiplies the relaxed-synchronization quantum in fast
// mode. Cross-core event skew stays bounded by the (scaled) quantum; the
// per-quantum scheduler sweep runs proportionally less often.
const fastQuantumScale = 4

// fastCore is the per-core extrapolation state of one fast-mode run. The
// det* counters are trained by the detailed walk (memAccess) and read by
// fastSkippedAccess.
type fastCore struct {
	// detL1Accesses/detL1Hits count detailed-set accesses and their L1
	// hits; their ratio drives the skipped-set L1 predictor. l1Credit is
	// its Bresenham accumulator.
	detL1Accesses uint64
	detL1Hits     uint64
	l1Credit      uint64
	// detAccesses/detHits count detailed-set accesses that reached the LLC
	// and the subset that hit; their ratio drives the LLC hit predictor.
	detAccesses uint64
	detHits     uint64
	// hitCredit is the Bresenham accumulator: it gains detHits per skipped
	// access and pays detAccesses per predicted hit.
	hitCredit uint64
	// Detailed blocking-load-miss totals, for average-cost charging.
	detMissLoads  uint64
	detMissStall  uint64
	detMissInterf uint64
}

// fastSkippedAccess handles an access to a non-detailed LLC set: predicted
// L1, predicted LLC, no cache-array walk and no memory traffic.
func (m *Machine) fastSkippedAccess(t *thread, fc *fastCore, isLoad bool) {
	// Predicted L1 hit — the common case — costs nothing, like a real one.
	if fc.detL1Accesses > 0 {
		fc.l1Credit += fc.detL1Hits
		if fc.l1Credit >= fc.detL1Accesses {
			fc.l1Credit -= fc.detL1Accesses
			return
		}
	}

	// Predicted L1 miss: full-population access count; the sampling factors
	// extrapolate the detailed-set interference counters over these.
	t.ct.LLCAccesses++
	if fc.detAccesses > 0 {
		fc.hitCredit += fc.detHits
		if fc.hitCredit >= fc.detAccesses {
			fc.hitCredit -= fc.detAccesses
			// Predicted LLC hit.
			if isLoad {
				t.time += cpu.LLCHitStall
			}
			return
		}
	}
	// Predicted LLC miss. Stores retire through the store buffer; loads are
	// charged this core's average detailed miss cost.
	if !isLoad {
		return
	}
	var stall, interf uint64
	if fc.detMissLoads > 0 {
		stall = fc.detMissStall / fc.detMissLoads
		interf = fc.detMissInterf / fc.detMissLoads
	} else {
		stall = cpu.BlockingMissStall(m.cfg.Mem.RowHitCycles + m.cfg.Mem.BusCycles)
	}
	t.time += stall
	t.ct.LLCLoadMisses++
	t.ct.StallLLCLoadMiss += stall
	t.ct.MemInterferenceEst += interf
}
