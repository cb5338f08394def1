package sim

import (
	"repro/internal/core"
	"repro/internal/sched"
)

// Interval accounting: an opt-in mode in which the machine snapshots the
// cumulative per-thread accounting counters every snapEvery committed trace
// operations, feeding time-resolved speedup stacks (internal/stack's
// TimeSeries). Snapshots are pure reads — they copy counters and never
// touch timing state — so enabling them cannot change Tp, any substrate
// statistic, or any component of the aggregate stack; with the option
// disabled the only residue is one predictable branch per op-ring refill
// (pinned by the golden-hash and interval-equivalence tests).

// WithIntervals enables interval accounting: the machine snapshots the
// cumulative per-thread counters every everyOps committed trace operations
// (plus once at completion) into Result.Intervals. Ops are counted at batch
// granularity on the hot path, so snapshot boundaries land on op-ring
// refills — deterministically, but up to one batch (512 ops) past the exact
// multiple. everyOps == 0 leaves interval accounting disabled.
func WithIntervals(everyOps uint64) Option {
	return func(m *Machine) {
		m.snapEvery = everyOps
		m.nextSnap = everyOps
	}
}

// snapshot records the cumulative accounting state at m.ops committed ops
// and advances the next snapshot boundary past m.ops. Called only when
// interval accounting is enabled and m.ops crossed the boundary.
func (m *Machine) snapshot() {
	m.nextSnap = (m.ops/m.snapEvery + 1) * m.snapEvery
	m.snaps = append(m.snaps, m.takeSnapshot())
}

// takeSnapshot copies the cumulative per-thread counters. The copy is taken
// wherever the quantum loop happens to stand, which is a deterministic
// function of (config, programs) like everything else in the engine.
func (m *Machine) takeSnapshot() core.IntervalSnapshot {
	snap := core.IntervalSnapshot{
		Ops:      m.ops,
		Threads:  make([]core.ThreadCounters, len(m.threads)),
		Finished: make([]bool, len(m.threads)),
	}
	for i := range m.threads {
		t := &m.threads[i]
		snap.Threads[i] = t.ct
		snap.Finished[i] = m.os.State(i) == sched.StateFinished
		if t.time > snap.Time {
			snap.Time = t.time
		}
	}
	return snap
}

// finishIntervals seals the snapshot sequence at run completion: the final
// snapshot carries the end-of-run counters (and Time == Tp), replacing a
// boundary snapshot that already landed on the final op count. The slice is
// handed off to the Result — the machine is pooled, so it must not retain
// it.
func (m *Machine) finishIntervals(tp uint64) []core.IntervalSnapshot {
	final := m.takeSnapshot()
	final.Time = tp
	if n := len(m.snaps); n > 0 && m.snaps[n-1].Ops == final.Ops {
		m.snaps[n-1] = final
	} else {
		m.snaps = append(m.snaps, final)
	}
	out := m.snaps
	m.snaps = nil
	return out
}
