package sim

import (
	"fmt"

	"repro/internal/sched"
)

// RunPolling is Machine.Run's quantum loop as it was before Run kept a dense
// per-core time word: every quantum it looks up each core's running thread
// and calls runCore unless that thread is already past the boundary. It is
// the reference TestRunMatchesPollingLoop holds Run to, and is exported to
// the external test package because that test builds workload programs
// (workload imports sim). After each quantum it also holds the machine's
// sync waits to the scheduler's thread states (checkStates).
func (m *Machine) RunPolling() (Result, error) {
	quantum := m.cfg.Quantum
	if m.fast {
		quantum *= fastQuantumScale
	}
	if len(m.threads) == 1 && m.cfg.Cores == 1 {
		quantum = (m.cfg.MaxCycles-1)/m.cfg.Quantum*m.cfg.Quantum + m.cfg.Quantum
		if quantum < m.cfg.MaxCycles {
			quantum = m.cfg.MaxCycles
		}
	}
	m.quantum = quantum
	for m.finished < len(m.threads) {
		if m.clock >= m.cfg.MaxCycles {
			return Result{}, fmt.Errorf("sim: exceeded MaxCycles=%d with %d/%d threads finished",
				m.cfg.MaxCycles, m.finished, len(m.threads))
		}
		qEnd := m.clock + quantum
		for c := 0; c < m.cfg.Cores; c++ {
			if tid := m.os.Running(c); tid >= 0 && m.threads[tid].time >= qEnd {
				continue
			}
			m.runCore(c, qEnd)
		}
		m.clock = qEnd
		if err := m.checkStates(); err != nil {
			return Result{}, fmt.Errorf("quantum ending %d: %w", qEnd, err)
		}
	}
	return m.result(), nil
}

// checkStates reports the first thread whose sync wait and scheduler state
// disagree. An ungranted waiter is either still on its core (spinning) or
// parked (StateBlocked), and only an ungranted waiter is parked.
func (m *Machine) checkStates() error {
	for i := range m.threads {
		t := &m.threads[i]
		st := m.os.State(i)
		ungranted := t.waiting && !t.granted
		switch {
		case ungranted && st != sched.StateRunning && st != sched.StateBlocked:
			return fmt.Errorf("thread %d: ungranted waiter is %v", i, st)
		case st == sched.StateBlocked && !ungranted:
			return fmt.Errorf("thread %d: blocked but not an ungranted waiter", i)
		}
	}
	return nil
}
