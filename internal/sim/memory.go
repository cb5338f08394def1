package sim

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

// memAccess walks one load or store through the memory hierarchy, charging
// stalls to the thread and feeding both the estimator's accounting hardware
// (the set-sampled ATD, ORA-based memory interference, which is exact) and
// the oracle's coherence stall. It is the one detailed walk: exact mode takes
// it for every access, ModeFast for the accesses to detailed LLC sets —
// there it also trains the predictor (fast.go) that stands in for the walk
// on every other set.
func (m *Machine) memAccess(t *thread, c int, op *trace.Op) {
	// Dispatch slots of the memory instruction itself.
	t.time += cpu.ComputeCycles(uint64(op.N))
	isLoad := op.Kind == trace.KindLoad
	lineAddr := op.Addr >> m.llcLineShift
	set := int(lineAddr & m.llcSetMask)

	// fc is the core's fast-mode extrapolation state, nil in exact mode.
	var fc *fastCore
	if m.fast {
		fc = &m.fastCores[c]
		if uint64(set)&m.fastMask != 0 {
			m.fastSkippedAccess(t, fc, isLoad)
			return
		}
	}

	// The walks fill results kept on this frame (cache.Hierarchy.AccessTo).
	var out cache.Outcome
	m.hier.AccessTo(&out, c, op.Addr, !isLoad)
	if fc != nil {
		fc.detL1Accesses++
		if out.L1Hit {
			fc.detL1Hits++
		}
	}
	if out.L1Hit {
		// L1 hits are hidden by the out-of-order window; upgrades expose a
		// short invalidation round-trip.
		if out.Upgrade {
			t.time += cpu.UpgradeStall
		}
		return
	}

	// The access reaches the shared LLC: update the core's tag directory.
	// The hardware ATD observes every LLC access of its core (paper Section
	// 4.1); only sampled sets are backed by state. It mirrors the LLC's
	// geometry, so the (set, tag) pair decomposed above drives it too.
	t.ct.LLCAccesses++
	t.ct.DetailedLLCAccesses++
	if fc != nil {
		fc.detAccesses++
		if out.LLCHit {
			fc.detHits++
		}
	}
	estHit, sampled := false, false
	if m.acct && m.atds[c].SampledSet(set) {
		estHit, sampled = m.atds[c].AccessSetTag(set, lineAddr>>m.llcSetBits)
		t.ct.SampledATDAccesses++
	}

	if out.LLCHit {
		stall := cpu.LLCHitStall
		if out.DirtyForward {
			stall += cpu.CoherenceForwardStall
		}
		if isLoad {
			t.time += stall
			if out.CoherenceMiss {
				// Ground truth only: the estimator ignores coherency
				// (paper Section 4.5).
				t.ct.OracleCoherenceStall += stall
			}
			// Positive interference: a hit that a private LLC would have
			// missed. Loads only — store hits avoid no exposed stall.
			if sampled && !estHit {
				t.ct.SampledInterThreadHits++
			}
		}
		return
	}

	// LLC miss: go to memory. Stores also consume bus/bank bandwidth (they
	// interfere with other cores) but retire through the store buffer and
	// do not stall this thread. In fast mode these detailed-set misses are
	// the only ones that reach the DRAM model (the sampled subset of memory
	// traffic).
	var res mem.AccessResult
	m.memc.AccessTo(&res, t.time, c, op.Addr)
	if out.LLCVictimDirty {
		m.memc.Writeback(t.time, c, out.LLCVictimAddr)
	}
	if !isLoad {
		return
	}

	stall := cpu.BlockingMissStall(res.Latency)
	t.time += stall
	t.ct.LLCLoadMisses++
	t.ct.StallLLCLoadMiss += stall

	interf := cpu.ExposedInterference(res.Interference(), res.Latency)
	t.ct.MemInterferenceEst += interf
	if fc != nil {
		fc.detMissLoads++
		fc.detMissStall += stall
		fc.detMissInterf += interf
	}

	if sampled && estHit {
		// Inter-thread miss: a private LLC would have hit, so the entire
		// exposed stall is negative LLC interference. Remember its memory
		// interference too, so the post-processing can avoid counting it
		// twice (once in NegLLC, once in NegMem).
		t.ct.SampledInterThreadMissStall += stall
		t.ct.SampledInterThreadMissMemInterf += interf
	}
}
