// Package mem models the off-chip memory subsystem of the simulated CMP: a
// shared split-transaction memory bus, a configurable number of DRAM banks
// with an open-page (open-row) policy, and FCFS service at each resource.
//
// Every access reports the interference other cores caused it: the bus or
// bank waits behind another core's transfer (the controller sees the
// occupant, as the paper's hardware does), plus the row-miss penalty when
// another core closed a row this core had open. The row verdict is the
// paper's per-core Open Row Array (Section 4.1): for every bank, the row this
// core last accessed there. A row miss on the row the ORA holds is
// interference.
//
// That verdict is also the ground truth — "this core's last access to the
// bank was to the requested row, and another core accessed the bank since" —
// so the controller keeps one table, not two. On a row miss, a matching ORA
// row implies the other two conditions: the bank has an open row, because
// this core's earlier access opened one; and its last accessor is another
// core, because otherwise the open row would be this core's last row and the
// access would hit.
//
// Timing is transactional rather than cycle-stepped: each resource keeps a
// monotone "free at" timeline, which is equivalent to cycle-accurate FCFS
// service as long as requests are presented in nondecreasing time order —
// the simulator's quantum engine guarantees bounded skew.
package mem

import (
	"fmt"
	"math/bits"
)

// pow2 reports whether v is a positive power of two.
func pow2(v uint64) bool { return v > 0 && v&(v-1) == 0 }

// Config describes the memory subsystem.
type Config struct {
	// Banks is the number of DRAM banks (the paper simulates 8).
	Banks int
	// BusCycles is the bus occupancy of one cache-line transfer.
	BusCycles uint64
	// RowHitCycles is the access latency when the target row is open (CAS).
	RowHitCycles uint64
	// RowMissCycles is the latency when the row must be opened first
	// (precharge + activate + CAS).
	RowMissCycles uint64
	// RowBytes is the row-buffer (DRAM page) size.
	RowBytes int64
	// LineBytes is the transfer granularity (cache-line size).
	LineBytes int64
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.BusCycles == 0 || c.RowBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: non-positive parameter in %+v", c)
	}
	// The controller decomposes addresses with shifts and a mask.
	if !pow2(uint64(c.Banks)) {
		return fmt.Errorf("mem: Banks %d not a power of two", c.Banks)
	}
	if !pow2(uint64(c.LineBytes)) {
		return fmt.Errorf("mem: LineBytes %d not a power of two", c.LineBytes)
	}
	if !pow2(uint64(c.RowBytes / c.LineBytes)) {
		return fmt.Errorf("mem: RowBytes %d not a power-of-two multiple of LineBytes %d", c.RowBytes, c.LineBytes)
	}
	if c.RowMissCycles < c.RowHitCycles {
		return fmt.Errorf("mem: row miss (%d) faster than row hit (%d)", c.RowMissCycles, c.RowHitCycles)
	}
	return nil
}

// RowPenalty is the extra latency of a row-buffer miss over a hit.
func (c Config) RowPenalty() uint64 { return c.RowMissCycles - c.RowHitCycles }

// Bank returns the bank an address maps to. Banks are interleaved at
// cache-line granularity (the standard CMP mapping): consecutive lines
// rotate across banks, so streaming threads load all banks uniformly
// instead of marching across pages in lockstep.
func (c Config) Bank(addr uint64) int {
	return int((addr / uint64(c.LineBytes)) % uint64(c.Banks))
}

// Row returns the row-buffer index within the bank for addr: a thread
// streaming consecutive lines revisits the same row RowBytes/LineBytes
// times per bank before moving on, preserving open-page locality.
func (c Config) Row(addr uint64) uint64 {
	lines := addr / uint64(c.LineBytes)
	linesPerRow := uint64(c.RowBytes / c.LineBytes)
	return lines / uint64(c.Banks) / linesPerRow
}

// AccessResult describes the timing and interference decomposition of one
// memory access.
type AccessResult struct {
	// Latency is the total cycles from issue until the data transfer
	// completes (queueing included).
	Latency uint64
	// BankWait and BusWait are the FCFS queueing delays at each resource.
	BankWait uint64
	BusWait  uint64
	// BankWaitOther/BusWaitOther are the portions of the waits caused by an
	// access of a *different* core occupying the resource (ground truth).
	BankWaitOther uint64
	BusWaitOther  uint64
	// RowHit reports whether the access hit the open row.
	RowHit bool
	// RowConflictOther reports a row miss on the row this core's ORA holds
	// for the bank: another core closed it, so the row-miss penalty is
	// interference.
	RowConflictOther bool
	// RowPenalty is the extra latency paid over a row hit (0 on row hits).
	RowPenalty uint64
}

// Interference returns the interference cycles of the access: waits caused
// by other cores plus the row penalty when another core closed this core's
// row.
func (r *AccessResult) Interference() uint64 {
	v := r.BankWaitOther + r.BusWaitOther
	if r.RowConflictOther {
		v += r.RowPenalty
	}
	return v
}

type bank struct {
	freeAt    uint64
	lastOwner int
	openRow   uint64
	rowValid  bool
}

// oraEntry is one ORA row: the row a core last accessed in a bank.
type oraEntry struct {
	row   uint64
	valid bool
}

// Controller is the shared memory controller.
type Controller struct {
	cfg Config

	busFreeAt    uint64
	busLastOwner int

	banks []bank
	// ora holds every core's Open Row Array, one entry per bank, at
	// core*Banks + bank.
	ora []oraEntry

	// Precomputed address decomposition for bankRow.
	lineShift uint
	bankMask  uint64
	rowShift  uint // log2(banks) + log2(lines per row)

	stats Stats
}

// Stats aggregates controller-level counters.
type Stats struct {
	Accesses   uint64
	RowHits    uint64
	RowMisses  uint64
	Writebacks uint64
}

// NewController builds a controller for cores cores.
func NewController(cfg Config, cores int) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{cfg: cfg, busLastOwner: -1}
	c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	c.bankMask = uint64(cfg.Banks) - 1
	c.rowShift = uint(bits.TrailingZeros64(uint64(cfg.Banks)) + bits.TrailingZeros64(uint64(cfg.RowBytes/cfg.LineBytes)))
	c.banks = make([]bank, cfg.Banks)
	for i := range c.banks {
		c.banks[i].lastOwner = -1
	}
	c.ora = make([]oraEntry, cores*cfg.Banks)
	return c
}

// Reset restores the controller to its just-constructed state for cfg,
// reusing the bank and ORA storage (machine pooling across simulation
// runs). cfg must size that storage as the controller's own configuration
// does (Banks, RowBytes, LineBytes); Reset installs its timings (BusCycles,
// RowHitCycles, RowMissCycles), which size nothing.
func (c *Controller) Reset(cfg Config) {
	c.cfg.BusCycles, c.cfg.RowHitCycles, c.cfg.RowMissCycles = cfg.BusCycles, cfg.RowHitCycles, cfg.RowMissCycles
	c.busFreeAt = 0
	c.busLastOwner = -1
	c.stats = Stats{}
	for i := range c.banks {
		c.banks[i] = bank{lastOwner: -1}
	}
	clear(c.ora)
}

// Stats returns accumulated counters.
func (c *Controller) Stats() Stats { return c.stats }

// bankRow decomposes addr once into Config.Bank and Config.Row. The bank
// count, line size and lines-per-row ratio are powers of two
// (Config.Validate), so shifts and a mask replace Config's divisions.
func (c *Controller) bankRow(addr uint64) (int, uint64) {
	line := addr >> c.lineShift
	return int(line & c.bankMask), line >> c.rowShift
}

// Access is AccessTo returning the result by value, for callers off the
// simulator's per-access path.
func (c *Controller) Access(now uint64, core int, addr uint64) (res AccessResult) {
	c.AccessTo(&res, now, core, addr)
	return res
}

// AccessTo services a cache-line fetch for core starting at time now and
// writes its timing/interference decomposition to *res, overwriting all of
// it. Like cache.Hierarchy.AccessTo it fills the caller's struct in place
// rather than returning it, which would cost a store-forwarding stall per
// access.
func (c *Controller) AccessTo(res *AccessResult, now uint64, core int, addr uint64) {
	c.stats.Accesses++
	*res = AccessResult{}
	bankIdx, row := c.bankRow(addr)
	bk := &c.banks[bankIdx]
	ora := &c.ora[core*len(c.banks)+bankIdx]

	// Bank queueing.
	start := now
	if bk.freeAt > start {
		res.BankWait = bk.freeAt - start
		if bk.lastOwner != core {
			res.BankWaitOther = res.BankWait
		}
		start = bk.freeAt
	}

	// Row buffer.
	res.RowHit = bk.rowValid && bk.openRow == row
	var rowLat uint64
	if res.RowHit {
		rowLat = c.cfg.RowHitCycles
		c.stats.RowHits++
	} else {
		rowLat = c.cfg.RowMissCycles
		res.RowPenalty = c.cfg.RowPenalty()
		c.stats.RowMisses++
		// Would this have been a row hit in isolation? Yes iff this core's
		// last access to the bank was to this row (see the package comment).
		res.RowConflictOther = ora.valid && ora.row == row
	}
	bankDone := start + rowLat

	// Bus transfer (data return) — FCFS behind whatever transfer is active.
	busStart := bankDone
	if c.busFreeAt > busStart {
		res.BusWait = c.busFreeAt - busStart
		if c.busLastOwner != core {
			res.BusWaitOther = res.BusWait
		}
		busStart = c.busFreeAt
	}
	done := busStart + c.cfg.BusCycles

	// Commit resource state.
	bk.freeAt = bankDone
	bk.lastOwner = core
	bk.openRow = row
	bk.rowValid = true
	*ora = oraEntry{row: row, valid: true}
	c.busFreeAt = done
	c.busLastOwner = core

	res.Latency = done - now
}

// Writeback models a dirty-line eviction: the line crosses the bus to the
// controller's write buffer without the requester waiting, so it only adds
// bus pressure felt by later accesses. Write drains to the banks are
// scheduled opportunistically by real controllers and are not modeled.
func (c *Controller) Writeback(now uint64, core int, addr uint64) {
	c.stats.Writebacks++
	busStart := now
	if c.busFreeAt > busStart {
		busStart = c.busFreeAt
	}
	c.busFreeAt = busStart + c.cfg.BusCycles
	c.busLastOwner = core
}
