package sim

import "fmt"

// RunPolling is Machine.Run's quantum loop as it was before Run kept a dense
// per-core time word: every quantum it looks up each core's running thread
// and calls runCore unless that thread is already past the boundary. It is
// the reference TestRunMatchesPollingLoop holds Run to, and is exported to
// the external test package because that test builds workload programs
// (workload imports sim).
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
	}
	return m.result(), nil
}
