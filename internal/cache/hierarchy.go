package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/reuse"
)

// Hierarchy models the two-level cache system of the simulated CMP: private
// per-core L1 data caches over a shared, inclusive LLC, kept coherent with a
// directory-style MSI invalidation protocol (sharer vector per LLC line).
//
// Hierarchy implements only the structural protocol: hit/miss outcomes,
// evictions, invalidations and writebacks. All latencies are applied by the
// caller (internal/sim) based on the returned Outcome, which keeps the
// protocol unit-testable without a timing model.
type Hierarchy struct {
	l1  []l1Array
	llc llcArray

	stats HierarchyStats
}

// HierarchyStats aggregates protocol event counts, per core.
type HierarchyStats struct {
	L1Hits          []uint64
	L1Misses        []uint64
	LLCHits         []uint64
	LLCMisses       []uint64
	CoherenceMisses []uint64 // L1 misses caused by remote invalidation
	Upgrades        []uint64 // S->M transitions requiring invalidations
	Invalidations   []uint64 // lines invalidated in this core's L1 by others
	DirtyForwards   []uint64 // accesses serviced from a remote Modified line
	LLCWritebacks   uint64   // dirty LLC victims written to memory
}

// Outcome describes what one access did to the hierarchy.
type Outcome struct {
	// L1Hit is true when the access hit in the local L1 (no LLC involvement
	// except for upgrades).
	L1Hit bool
	// LLCHit is true when the access missed L1 but hit the shared LLC.
	LLCHit bool
	// CoherenceMiss is true when the L1 miss matched a coherence tombstone:
	// the line was present earlier and invalidated by a remote store.
	CoherenceMiss bool
	// DirtyForward is true when the data was held Modified in a remote L1
	// and had to be forwarded/downgraded.
	DirtyForward bool
	// Upgrade is true when a store hit a Shared L1 line and had to
	// invalidate remote copies before writing.
	Upgrade bool
	// InvalidationsSent counts remote L1 lines invalidated by this access.
	InvalidationsSent int
	// LLCVictimValid is true when the LLC evicted a valid line to make room.
	LLCVictimValid bool
	// LLCVictimDirty is true when that victim must be written back to
	// memory (it consumes bus bandwidth in the timing model).
	LLCVictimDirty bool
	// LLCVictimAddr is the base address of the evicted LLC line.
	LLCVictimAddr uint64
}

// MaxCores is the simulated machine's core limit, read by every judge of a
// core count: the LLC directory keeps one sharer bit per core in a 64-bit
// vector (llcWay.sharers).
const MaxCores = 64

// NewHierarchy builds a hierarchy with cores identical private L1s and one
// shared LLC.
func NewHierarchy(cores int, l1 Config, llc Config) *Hierarchy {
	h := new(Hierarchy)
	h.Reset(cores, l1, llc)
	return h
}

// Reset puts the hierarchy in its just-constructed state for cores private
// L1s of geometry l1 over an LLC of geometry llc, whatever it was built
// for: each tag array and counter slice is reused when its capacity is
// enough and allocated otherwise (machine pooling across simulation runs).
func (h *Hierarchy) Reset(cores int, l1 Config, llc Config) {
	if cores <= 0 || cores > MaxCores {
		panic(fmt.Sprintf("cache: core count must be in [1,%d] (sharer vector is 64-bit)", MaxCores))
	}
	h.l1 = reuse.Grown(h.l1, cores)
	for i := range h.l1 {
		h.l1[i].reset(l1)
	}
	h.llc.reset(llc)
	s := &h.stats
	for _, c := range []*[]uint64{&s.L1Hits, &s.L1Misses, &s.LLCHits, &s.LLCMisses,
		&s.CoherenceMisses, &s.Upgrades, &s.Invalidations, &s.DirtyForwards} {
		*c = reuse.Zeroed(*c, cores)
	}
	s.LLCWritebacks = 0
}

// Stats returns the accumulated protocol statistics.
func (h *Hierarchy) Stats() *HierarchyStats { return &h.stats }

// LLCSplit returns the LLC set and tag addr maps to.
func (h *Hierarchy) LLCSplit(addr uint64) (set int, tag uint64) { return h.llc.split(addr) }

// Access is AccessTo returning the outcome by value, for callers off the
// simulator's per-access path.
func (h *Hierarchy) Access(core int, addr uint64, write bool) (out Outcome) {
	h.AccessTo(&out, core, addr, write)
	return out
}

// AccessTo performs one load or store by core to addr and writes the
// structural outcome to *out, overwriting all of it. It updates L1 and LLC
// contents, replacement state, sharer vectors and coherence tombstones.
// The outcome is filled in place because returning the 40-byte struct by
// value makes the caller reload it across the callee's narrow stores, a
// store-forwarding stall on every access.
//
// The address is split exactly once per array geometry (all L1s share one
// geometry, so one L1 set/tag pair serves every private cache), and each
// set touched is walked in a single pass: the L1 lookup fuses probe, MRU
// promotion and tombstone classification; insert fuses victim selection
// with the MRU install. An L1 line's LLC line is reached through the slot
// the L1 word stores, never by a second LLC search.
func (h *Hierarchy) AccessTo(out *Outcome, core int, addr uint64, write bool) {
	*out = Outcome{}
	l1 := &h.l1[core]
	llc := &h.llc
	l1Set, l1Tag := l1.split(addr)
	llcSet, llcTag := llc.split(addr)

	way, tombstone := l1.lookup(l1Set, l1Tag)
	if way != nil {
		h.stats.L1Hits[core]++
		out.L1Hit = true
		if write && *way&l1StateMask == l1Shared {
			// Upgrade: invalidate all other sharers via the directory.
			out.Upgrade = true
			h.stats.Upgrades[core]++
			line := llc.way(llcSet, l1Slot(*way))
			out.InvalidationsSent = h.invalidateRemoteSharers(core, l1Set, l1Tag, line)
			line.sharers = 1 << uint(core)
			line.setOwner(core)
			*way = *way&^l1StateMask | l1Modified
		}
		return
	}

	// L1 miss path; the miss walk above already classified the tombstone.
	h.stats.L1Misses[core]++
	if tombstone {
		out.CoherenceMiss = true
		h.stats.CoherenceMisses[core]++
	}

	if slot := llc.lookup(llcSet, llcTag); slot >= 0 {
		line := llc.way(llcSet, slot)
		h.stats.LLCHits[core]++
		out.LLCHit = true
		if owner := line.owner(); owner >= 0 && owner != core {
			// Remote Modified copy: forward and downgrade/invalidate it.
			out.DirtyForward = true
			h.stats.DirtyForwards[core]++
			if write {
				if _, present := h.l1[owner].invalidate(l1Set, l1Tag, true); present {
					h.stats.Invalidations[owner]++
					out.InvalidationsSent++
				}
				line.sharers &^= 1 << uint(owner)
			} else if ow := h.l1[owner].probe(l1Set, l1Tag); ow != nil {
				// Downgrade owner M->S; its data is written back into LLC.
				*ow = *ow&^l1StateMask | l1Shared
			}
			line.key |= llcDirty
			line.setOwner(-1)
		}
		if write {
			out.InvalidationsSent += h.invalidateRemoteSharers(core, l1Set, l1Tag, line)
			line.sharers = 1 << uint(core)
			line.setOwner(core)
		} else {
			line.sharers |= 1 << uint(core)
		}
		h.fillL1(core, l1Set, l1Tag, slot, write)
		return
	}

	// LLC miss: fetch from memory, install in LLC then L1.
	h.stats.LLCMisses[core]++
	slot, victim := llc.insert(llcSet, llcTag)
	if victim.key != 0 {
		out.LLCVictimValid = true
		out.LLCVictimAddr = llc.victimAddr(llcSet, victim)
		// Inclusive LLC: purge the victim from every sharer's L1. These are
		// capacity invalidations, not coherence, so no tombstone is left.
		// All L1s share one geometry: split the victim address once, and
		// iterate set bits instead of scanning every core.
		vSet, vTag := l1.split(out.LLCVictimAddr)
		dirty := victim.key&llcDirty != 0 || victim.owner() >= 0
		for v := victim.sharers; v != 0; v &= v - 1 {
			c := bits.TrailingZeros64(v)
			if old, present := h.l1[c].invalidate(vSet, vTag, false); present && old&l1StateMask == l1Modified {
				dirty = true
			}
		}
		if dirty {
			out.LLCVictimDirty = true
			h.stats.LLCWritebacks++
		}
	}
	line := llc.way(llcSet, slot)
	line.sharers = 1 << uint(core)
	if write {
		line.setOwner(core)
	}
	h.fillL1(core, l1Set, l1Tag, slot, write)
}

// invalidateRemoteSharers invalidates the (set, tag) line in every L1 other
// than core's, leaving coherence tombstones. All L1s share one geometry, so
// the caller's split serves every private cache. It returns the number of
// invalidations.
func (h *Hierarchy) invalidateRemoteSharers(core, set int, tag uint64, line *llcWay) int {
	n := 0
	for v := line.sharers &^ (1 << uint(core)); v != 0; v &= v - 1 {
		c := bits.TrailingZeros64(v)
		if _, present := h.l1[c].invalidate(set, tag, true); present {
			h.stats.Invalidations[c]++
			n++
		}
	}
	return n
}

// fillL1 installs the (set, tag) line, held in LLC slot slot, into core's
// L1 in the appropriate MSI state and handles the L1 victim (writeback into
// its LLC line, sharer-bit cleanup). Inclusion keeps the victim's LLC line
// in the slot its word names.
func (h *Hierarchy) fillL1(core, set int, tag uint64, slot int, write bool) {
	l1 := &h.l1[core]
	state := l1Shared
	if write {
		state = l1Modified
	}
	victim, evicted := l1.insert(set, tag, slot, state)
	if !evicted {
		return
	}
	vSet, _ := h.llc.split(l1.victimAddr(set, victim))
	vline := h.llc.way(vSet, l1Slot(victim))
	vline.sharers &^= 1 << uint(core)
	if victim&l1StateMask == l1Modified {
		vline.key |= llcDirty
	}
	if vline.owner() == core {
		vline.setOwner(-1)
	}
}
