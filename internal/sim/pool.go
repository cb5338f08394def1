package sim

import (
	"sync"

	"repro/internal/spin"
	"repro/internal/syncprim"
	"repro/internal/trace"
)

// Pool recycles Machines — and the multi-megabyte tag-array, ATD and
// controller backings behind them — across runs whose configurations size
// that storage alike, so steady-state simulation (a sweep engine executing
// many cells, the speedupd service under load) allocates nothing per
// simulated op and close to nothing per run.
//
// Machines are held in one sync.Pool per storage shape (storageKey): the
// configuration with every field that sizes nothing zeroed — the quantum,
// the cycle cap, the mode, the spin detector, the policy and the memory
// timings. The machine reads those only through the configuration reset
// installs, so the exact, fast and sequential runs of one shape, the
// memory-latency what-ifs and an inline spec's client-chosen lock_grace
// all share one entry and one recycled machine instead of each growing the
// map by one never-removed entry, and one fresh machine. Idle machines are
// dropped by the garbage collector under memory pressure, so a
// long-running process sweeping many machine shapes is bounded by its live
// concurrency. Pool is safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	pools map[Config]*sync.Pool
}

// NewPool returns an empty Pool.
func NewPool() *Pool {
	return &Pool{pools: make(map[Config]*sync.Pool)}
}

// storageKey is cfg with every field zeroed that sizes no storage of the
// machine: what Machine.reset installs rather than what NewMachine
// allocates.
func storageKey(cfg Config) Config {
	cfg.Quantum, cfg.MaxCycles, cfg.Mode = 0, 0, 0
	cfg.Spin, cfg.Policy = spin.Config{}, syncprim.Policy{}
	cfg.Mem.BusCycles, cfg.Mem.RowHitCycles, cfg.Mem.RowMissCycles = 0, 0, 0
	return cfg
}

func (p *Pool) pool(cfg Config) *sync.Pool {
	key := storageKey(cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.pools[key]
	if sp == nil {
		sp = &sync.Pool{}
		p.pools[key] = sp
	}
	return sp
}

// Run executes progs to completion on a pooled machine for cfg, applying
// opts first, and returns the machine to the pool afterwards. Results are
// identical to building a fresh machine with NewMachine, which itself ends
// in the reset a recycled machine gets.
func (p *Pool) Run(cfg Config, progs []trace.Program, opts ...Option) (Result, error) {
	sp := p.pool(cfg)
	m, _ := sp.Get().(*Machine)
	if m == nil {
		var err error
		m, err = NewMachine(cfg, progs)
		if err != nil {
			return Result{}, err
		}
	} else if err := m.reset(cfg, progs); err != nil {
		return Result{}, err
	}
	for _, o := range opts {
		o(m)
	}
	res, err := m.Run()
	sp.Put(m)
	return res, err
}

// defaultPool backs the package-level Run/RunSequential: every caller —
// the exp sweep engine, the speedupd service, tests — shares the recycled
// machines automatically.
var defaultPool = NewPool()
