// Package spin implements hardware spin-detection mechanisms used to charge
// synchronization spinning to the speedup stack (paper Section 4.3).
//
// The primary detector follows Tian et al.: a small per-core load table
// watches load instructions; a load that returns the same value more than a
// threshold number of times is marked as a candidate spin load, and when a
// marked load finally observes a different value that was written by another
// core, the elapsed time since the load's first occurrence is classified as
// spinning. (The paper also considers Li et al.'s backward-branch scheme and
// selects Tian's for its lower hardware cost; only the selected one lives
// here.)
package spin

import "fmt"

// Config parameterizes the Tian-style detector.
type Config struct {
	// TableEntries is the load-table capacity (the paper assumes a spin
	// loop contains at most 8 loads, hence 8 entries).
	TableEntries int
	// Threshold is the number of identical-value repetitions after which a
	// load is marked as a candidate spin load.
	Threshold int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TableEntries <= 0 || c.Threshold <= 0 {
		return fmt.Errorf("spin: non-positive parameter %+v", c)
	}
	return nil
}

// entry is one load-table row: PC, address, last value, a repetition count,
// the mark bit, and the timestamp of the first occurrence — exactly the
// fields the paper's cost model enumerates (Section 4.7).
type entry struct {
	pc        uint64
	addr      uint64
	value     uint64
	count     int
	marked    bool
	firstTime uint64
	valid     bool
}

// Detector is the Tian-style per-core spin detector.
type Detector struct {
	cfg     Config
	entries []entry
}

// NewDetector returns a Detector.
func NewDetector(cfg Config) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Detector{cfg: cfg, entries: make([]entry, cfg.TableEntries)}
}

// ObserveLoad feeds one dynamic load into the detector. writtenByOther
// reports whether the loaded value was produced by a store from another core
// (the hardware learns this from the coherence protocol). It returns the
// spin cycles detected by this load (non-zero only when a marked load
// observes a remotely-written new value).
func (d *Detector) ObserveLoad(now, pc, addr, value uint64, writtenByOther bool) uint64 {
	e := d.find(pc)
	if e == nil {
		e = d.insert(pc)
		*e = entry{pc: pc, addr: addr, value: value, count: 1, firstTime: now, valid: true}
		return 0
	}
	if e.addr == addr && e.value == value {
		e.count++
		if e.count > d.cfg.Threshold {
			e.marked = true
		}
		return 0
	}
	// Value (or address) changed. An episode that ends unmarked, below the
	// threshold, goes undetected (an error source in the paper's validation,
	// Section 6).
	detected := uint64(0)
	if e.marked && writtenByOther && now > e.firstTime {
		detected = now - e.firstTime
	}
	*e = entry{pc: pc, addr: addr, value: value, count: 1, firstTime: now, valid: true}
	return detected
}

func (d *Detector) find(pc uint64) *entry {
	for i := range d.entries {
		if d.entries[i].valid && d.entries[i].pc == pc {
			return &d.entries[i]
		}
	}
	return nil
}

// insert victimizes an empty entry or the one with the oldest first
// occurrence (FIFO-ish replacement keeps the hardware trivial).
func (d *Detector) insert(pc uint64) *entry {
	victim := &d.entries[0]
	for i := range d.entries {
		e := &d.entries[i]
		if !e.valid {
			return e
		}
		if e.firstTime < victim.firstTime {
			victim = e
		}
	}
	return victim
}

// Episode describes one fast-forwarded spin interval; the simulator models
// test-and-test-and-set spinning as a blocked state (the spin loop hits the
// local L1 until the lock transfer) and synthesizes the load stream the
// detector would have seen.
type Episode struct {
	// PC and Addr identify the spin load (the lock or barrier word).
	PC, Addr uint64
	// Start is the time of the first spin-loop load.
	Start uint64
	// Period is the spin-loop iteration time in cycles.
	Period uint64
	// End is the time the awaited value changed (lock granted / barrier
	// released). The final load observes the new value.
	End uint64
	// OldValue/NewValue are the lock-word values before/after the change.
	OldValue, NewValue uint64
}

// Iterations returns the number of same-value loop iterations the episode
// would execute.
func (e Episode) Iterations() uint64 {
	if e.End <= e.Start || e.Period == 0 {
		return 0
	}
	return (e.End - e.Start) / e.Period
}

// FeedEpisode replays an episode into the detector without materializing
// every load: outcomes depend only on whether the iteration count crosses
// the threshold, so repetitions beyond threshold+1 are collapsed. It returns
// the spin cycles the detector charges for the episode.
func FeedEpisode(d *Detector, ep Episode) uint64 {
	iters := ep.Iterations()
	if iters == 0 {
		return 0
	}
	feed := iters
	if max := uint64(d.cfg.Threshold + 2); feed > max {
		feed = max
	}
	for i := uint64(0); i < feed; i++ {
		// Spread the collapsed observations across the true interval so the
		// recorded firstTime is exact.
		t := ep.Start + i*ep.Period
		d.ObserveLoad(t, ep.PC, ep.Addr, ep.OldValue, false)
	}
	return d.ObserveLoad(ep.End, ep.PC, ep.Addr, ep.NewValue, true)
}
