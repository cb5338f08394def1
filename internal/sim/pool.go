package sim

import (
	"sync"

	"repro/internal/trace"
)

// Pool recycles Machines — and the multi-megabyte tag-array, ATD and
// controller backings behind them — across runs, so steady-state
// simulation (a sweep engine executing many cells, the speedupd service
// under load) allocates nothing per simulated op and close to nothing per
// run.
//
// One sync.Pool serves every configuration: Machine.reset gives a machine
// each run's geometry and reuses every backing slice whose capacity is
// enough, so the exact, fast and sequential runs, every core count and
// every LLC size the evaluation sweeps share the same machines, which grow
// to the largest shape they have run and allocate no tag storage after
// that. Idle machines are dropped by the garbage collector under memory
// pressure, so a long-running process is bounded by its live concurrency.
// The zero Pool is empty and ready to use; Pool is safe for concurrent use.
type Pool struct {
	machines sync.Pool
}

// Run executes progs to completion on a pooled machine for cfg, applying
// opts first, and returns the machine to the pool afterwards. Results are
// identical to building a fresh machine with NewMachine, which is itself
// the reset a recycled machine gets.
func (p *Pool) Run(cfg Config, progs []trace.Program, opts ...Option) (Result, error) {
	m, _ := p.machines.Get().(*Machine)
	if m == nil {
		m = new(Machine)
	}
	defer p.machines.Put(m)
	if err := m.reset(cfg, progs); err != nil {
		return Result{}, err
	}
	for _, o := range opts {
		o(m)
	}
	return m.Run()
}

// defaultPool backs the package-level Run/RunSequential: every caller —
// the exp sweep engine, the speedupd service, tests — shares the recycled
// machines automatically.
var defaultPool Pool
