// Package sim implements the CMP simulator that plays the role of the
// paper's gem5 setup: a multi-core machine with private L1s, a shared LLC,
// a banked open-page memory subsystem behind a shared bus, an OS scheduler,
// and the per-thread cycle accounting architecture under evaluation.
//
// The engine is quantum-based (relaxed synchronization, as popularized by
// Graphite/Sniper): cores advance in fixed quanta in core-ID order, and all
// shared resources are reserved against monotone timelines, bounding
// cross-core timing skew by one quantum while keeping whole runs
// deterministic for a fixed configuration and workload seed.
package sim

import (
	"fmt"

	"repro/internal/atd"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/syncprim"
)

// Config assembles the settable part of the machine description. The
// core's, the scheduler's and the synchronization library's costs are the
// same on every machine the experiments evaluate, so they are constants in
// packages cpu, sched and syncprim.
type Config struct {
	// Cores is the number of hardware contexts.
	Cores int
	// Quantum is the relaxed-synchronization quantum in cycles.
	Quantum uint64
	// MaxCycles aborts runaway simulations (safety net, not a tuning knob).
	MaxCycles uint64

	// Mode selects exact (byte-identical) or sampled fast simulation. It is
	// part of the configuration value on purpose: everything keyed by
	// Config — the machine pool, the sweep engine's memo — separates fast
	// and exact state automatically.
	Mode Mode

	L1  cache.Config
	LLC cache.Config
	Mem mem.Config
	// ATDSampleShift selects 1-in-2^shift LLC sets for ATD monitoring; in
	// ModeFast those are also the only sets simulated in detail.
	ATDSampleShift uint
	Spin           spin.Config
	Policy         syncprim.Policy
}

// Default returns the paper's machine (Section 5): four-wide out-of-order
// cores, 64 KB private L1 D-caches, a 2 MB 16-way shared LLC, and a shared
// bus in front of 8 memory banks.
func Default() Config {
	return Config{
		Cores:     16,
		Quantum:   100,
		MaxCycles: 4_000_000_000,
		Mode:      ModeExact,
		L1: cache.Config{
			SizeBytes: 64 << 10,
			Ways:      8,
			LineBytes: 64,
		},
		LLC: cache.Config{
			SizeBytes: 2 << 20,
			Ways:      16,
			LineBytes: 64,
		},
		Mem: mem.Config{
			Banks:         8,
			BusCycles:     16,
			RowHitCycles:  90,
			RowMissCycles: 210,
			RowBytes:      4 << 10,
			LineBytes:     64,
		},
		ATDSampleShift: 5,
		Spin:           spin.Config{Threshold: 16},
		Policy:         syncprim.DefaultPolicy(),
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > cache.MaxCores {
		return fmt.Errorf("sim: cores must be in [1,%d], got %d", cache.MaxCores, c.Cores)
	}
	if c.Quantum == 0 {
		return fmt.Errorf("sim: quantum must be positive")
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.LLC.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	// The inclusive hierarchy derives an L1 victim's LLC line, and an LLC
	// victim's L1 lines, from one address: mismatched line sizes would break
	// inclusion silently.
	if c.L1.LineBytes != c.LLC.LineBytes || c.LLC.LineBytes != c.Mem.LineBytes {
		return fmt.Errorf("sim: L1.LineBytes %d, LLC.LineBytes %d and Mem.LineBytes %d must be equal",
			c.L1.LineBytes, c.LLC.LineBytes, c.Mem.LineBytes)
	}
	if err := c.Spin.Validate(); err != nil {
		return err
	}
	if c.LLC.Sets()>>c.ATDSampleShift == 0 {
		return fmt.Errorf("sim: ATD sample shift %d too large for %d LLC sets",
			c.ATDSampleShift, c.LLC.Sets())
	}
	if c.Mode > ModeFast {
		return fmt.Errorf("sim: unknown mode %d", c.Mode)
	}
	return nil
}

// WithMode returns a copy of the configuration running in the given mode.
func (c Config) WithMode(m Mode) Config {
	c.Mode = m
	return c
}

// WithCores returns a copy of the configuration resized to n cores.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// Sequential returns the machine the single-threaded reference runs on: one
// core, with every field that run (one thread, accounting off, one quantum)
// never reads reset — Spin, ATDSampleShift in exact mode, Quantum beyond
// the horizon it sets — so configurations differing only there share one
// reference. An invalid configuration keeps its fields and its error.
func (c Config) Sequential() Config {
	c.Cores = 1
	if c.Validate() != nil {
		return c
	}
	d := Default()
	c.Spin, c.Quantum = d.Spin, c.horizon()
	if c.Mode == ModeExact && c.LLC.Sets()>>d.ATDSampleShift != 0 { // else the LLC needs its shift
		c.ATDSampleShift = d.ATDSampleShift
	}
	return c
}

// horizon is where a single-quantum run stops: the stepped loop's first
// quantum boundary at or past MaxCycles.
func (c Config) horizon() uint64 {
	if c.MaxCycles <= c.Quantum {
		return c.Quantum
	}
	if h := (c.MaxCycles-1)/c.Quantum*c.Quantum + c.Quantum; h >= c.MaxCycles {
		return h
	}
	return c.MaxCycles // overflow
}

// WithLLCSize returns a copy with the LLC capacity replaced (Figure 9's
// sweep parameter).
func (c Config) WithLLCSize(bytes int64) Config {
	c.LLC.SizeBytes = bytes
	return c
}

// atdConfig derives the per-core ATD geometry from the LLC.
func (c Config) atdConfig() atd.Config {
	return atd.Config{
		Sets:        c.LLC.Sets(),
		Ways:        c.LLC.Ways,
		LineBytes:   c.LLC.LineBytes,
		SampleShift: c.ATDSampleShift,
	}
}
