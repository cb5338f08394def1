// Package mem models the off-chip memory subsystem of the simulated CMP: a
// shared split-transaction memory bus, a configurable number of DRAM banks
// with an open-page (open-row) policy, and FCFS service at each resource.
//
// Two views of interference are produced for every access:
//
//   - Ground truth: the controller knows exactly which core occupied the bus
//     or bank while this access waited, and whether a row that this core had
//     open was closed by another core in the meantime.
//   - Estimator: the per-core Open Row Array (ORA) of the paper (Section
//     4.1) predicts whether a row-buffer conflict was caused by another core
//     by remembering only the rows *this* core opened. Capacity evictions in
//     the ORA make the estimate imperfect in exactly the way the hardware
//     proposal is.
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
	// ORAEntries is the per-core Open Row Array capacity.
	ORAEntries int
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
	if c.ORAEntries <= 0 {
		return fmt.Errorf("mem: ORAEntries must be positive")
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
	// RowConflictOtherTruth is the ground truth: this core's previous
	// access to the bank targeted the same row, and another core closed it
	// in between, so the row-miss penalty is interference.
	RowConflictOtherTruth bool
	// RowConflictOtherORA is the estimator's verdict from the per-core ORA.
	RowConflictOtherORA bool
	// RowPenalty is the extra latency paid over a row hit (0 on row hits).
	RowPenalty uint64
}

// InterferenceTruth returns the ground-truth interference cycles of the
// access: waits caused by other cores plus the row penalty when another core
// closed this core's row.
func (r *AccessResult) InterferenceTruth() uint64 {
	v := r.BankWaitOther + r.BusWaitOther
	if r.RowConflictOtherTruth {
		v += r.RowPenalty
	}
	return v
}

// InterferenceEstimate returns the interference cycles the accounting
// hardware would charge: resource waits attributed to other cores (the
// hardware observes the occupant directly, per the paper) plus the row
// penalty when the ORA flags the conflict.
func (r *AccessResult) InterferenceEstimate() uint64 {
	v := r.BankWaitOther + r.BusWaitOther
	if r.RowConflictOtherORA {
		v += r.RowPenalty
	}
	return v
}

type bank struct {
	freeAt    uint64
	lastOwner int
	openRow   uint64
	rowValid  bool
	// lastRowByCore tracks, per core, the row of that core's most recent
	// access to this bank — the ground-truth analogue of the ORA.
	lastRowByCore []uint64
	lastRowValid  []bool
}

// Controller is the shared memory controller.
type Controller struct {
	cfg Config

	busFreeAt    uint64
	busLastOwner int

	banks []bank
	oras  []*ORA

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
		c.banks[i] = bank{
			lastOwner:     -1,
			lastRowByCore: make([]uint64, cores),
			lastRowValid:  make([]bool, cores),
		}
	}
	c.oras = make([]*ORA, cores)
	for i := range c.oras {
		c.oras[i] = NewORA(cfg.ORAEntries, cfg.Banks)
	}
	return c
}

// Reset restores the controller to its just-constructed state, reusing the
// bank and ORA storage (machine pooling across simulation runs).
func (c *Controller) Reset() {
	c.busFreeAt = 0
	c.busLastOwner = -1
	c.stats = Stats{}
	for i := range c.banks {
		b := &c.banks[i]
		b.freeAt, b.lastOwner, b.openRow, b.rowValid = 0, -1, 0, false
		for j := range b.lastRowByCore {
			b.lastRowByCore[j] = 0
		}
		for j := range b.lastRowValid {
			b.lastRowValid[j] = false
		}
	}
	for _, o := range c.oras {
		o.Reset()
	}
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
		// Ground truth: would this have been a row hit in isolation? Yes
		// iff this core's previous access to the bank was to the same row
		// and some other core opened a different row in between.
		if bk.lastRowValid[core] && bk.lastRowByCore[core] == row &&
			bk.rowValid && bk.lastOwner != core {
			res.RowConflictOtherTruth = true
		}
		// Estimator: the ORA remembers rows this core opened; a match means
		// "I opened this row most recently (as far as I know), so someone
		// else must have closed it".
		res.RowConflictOtherORA = c.oras[core].Contains(bankIdx, row)
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
	bk.lastRowByCore[core] = row
	bk.lastRowValid[core] = true
	c.busFreeAt = done
	c.busLastOwner = core
	c.oras[core].Record(bankIdx, row)

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

// ORA is the per-core Open Row Array: a small LRU table of the rows this
// core opened, used to attribute row-buffer conflicts to other cores. It
// holds at most one row per bank (the most recent one this core opened
// there), so it is stored per bank: Contains is one load and a compare, and
// Record is O(1) except when a new bank arrives at a full ORA, which scans
// for the least recently recorded bank to evict. Capacity is the hardware
// budget knob; the paper's cost model assumes a handful of entries per core,
// and the default (8 entries over 8 banks) never evicts.
type ORA struct {
	slots    []oraSlot // indexed by bank
	clock    uint64    // Records so far
	held     int       // slots holding a row
	capacity int
}

type oraSlot struct {
	row uint64
	// stamp is the clock at the bank's latest Record; 0 means the ORA holds
	// no row for the bank.
	stamp uint64
}

// NewORA returns an ORA with capacity entries over banks banks.
func NewORA(capacity, banks int) *ORA {
	return &ORA{slots: make([]oraSlot, banks), capacity: capacity}
}

// Reset empties the ORA, reusing its storage.
func (o *ORA) Reset() {
	clear(o.slots)
	o.clock, o.held = 0, 0
}

// Record notes that this core opened row in bank, making it the most
// recently used entry.
func (o *ORA) Record(bank int, row uint64) {
	o.clock++
	s := &o.slots[bank]
	if s.stamp == 0 {
		if o.held < o.capacity {
			o.held++
		} else {
			o.evictLRU()
		}
	}
	s.row, s.stamp = row, o.clock
}

// evictLRU drops the held bank recorded least recently.
func (o *ORA) evictLRU() {
	lru := -1
	for b, s := range o.slots {
		if s.stamp != 0 && (lru < 0 || s.stamp < o.slots[lru].stamp) {
			lru = b
		}
	}
	o.slots[lru].stamp = 0
}

// Contains reports whether the ORA believes this core opened row in bank
// most recently.
func (o *ORA) Contains(bank int, row uint64) bool {
	s := &o.slots[bank]
	return s.stamp != 0 && s.row == row
}
