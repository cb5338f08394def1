package cache

import (
	"fmt"
	"reflect"
	"testing"
)

// The reference model: a deliberately plain private-L1 + inclusive-LLC + MSI
// directory. Every set is a slice of structs in MRU-to-LRU order with every
// field spelled out — no packing, no full-set flag, no fused walks — and
// addresses are split with Config's divisions, not the arrays' shifts. It is
// the one generic 24-byte Line both levels shared before the tag arrays were
// packed, kept here as the fence: ReplayAgainstReference drives the same
// accesses through it and through Hierarchy.AccessTo and demands the same
// Outcome for every access and the same statistics at the end.

type refState uint8

const (
	refInvalid refState = iota
	refShared
	refModified
)

type refLine struct {
	Tag   uint64
	Valid bool
	// Tombstone marks an L1 line invalidated by a remote store: the tag
	// stays so a later miss on it classifies as a coherence miss.
	Tombstone bool
	State     refState // L1 MSI state
	Dirty     bool
	Sharers   uint64 // LLC: cores holding the line in their L1
	Owner     int    // LLC: core holding the line Modified, or -1
}

func emptyRefLine() refLine { return refLine{Owner: -1} }

type refArray struct {
	cfg  Config
	sets [][]refLine
}

func newRefArray(cfg Config) *refArray {
	a := &refArray{cfg: cfg, sets: make([][]refLine, cfg.Sets())}
	for i := range a.sets {
		a.sets[i] = make([]refLine, cfg.Ways)
		for w := range a.sets[i] {
			a.sets[i][w] = emptyRefLine()
		}
	}
	return a
}

func (a *refArray) set(addr uint64) []refLine { return a.sets[a.cfg.SetIndex(addr)] }

// way returns the way holding addr's valid line, or -1.
func (a *refArray) way(addr uint64) int {
	for w, l := range a.set(addr) {
		if l.Valid && l.Tag == a.cfg.Tag(addr) {
			return w
		}
	}
	return -1
}

// find returns addr's valid line without touching the LRU order, or nil.
func (a *refArray) find(addr uint64) *refLine {
	if w := a.way(addr); w >= 0 {
		return &a.set(addr)[w]
	}
	return nil
}

// touch moves addr's valid line to MRU and returns it, or nil.
func (a *refArray) touch(addr uint64) *refLine {
	w := a.way(addr)
	if w < 0 {
		return nil
	}
	s := a.set(addr)
	l := s[w]
	copy(s[1:w+1], s[:w])
	s[0] = l
	return &s[0]
}

func (a *refArray) hasTombstone(addr uint64) bool {
	for _, l := range a.set(addr) {
		if !l.Valid && l.Tombstone && l.Tag == a.cfg.Tag(addr) {
			return true
		}
	}
	return false
}

// fill installs addr at MRU and returns the new line and the previous
// contents of the way it took: a tombstone of the same tag if there is one,
// else the LRU-most invalid way, else the LRU way. No other tombstone of the
// tag survives the fill.
func (a *refArray) fill(addr uint64) (*refLine, refLine) {
	s, tag := a.set(addr), a.cfg.Tag(addr)
	way := -1
	for w, l := range s {
		if !l.Valid && l.Tombstone && l.Tag == tag {
			way = w
		}
	}
	if way < 0 {
		for w, l := range s {
			if !l.Valid {
				way = w
			}
		}
	}
	if way < 0 {
		way = len(s) - 1
	}
	victim := s[way]
	copy(s[1:way+1], s[:way])
	s[0] = emptyRefLine()
	s[0].Tag, s[0].Valid = tag, true
	for w := 1; w < len(s); w++ {
		if !s[w].Valid && s[w].Tombstone && s[w].Tag == tag {
			s[w] = emptyRefLine()
		}
	}
	return &s[0], victim
}

// invalidate removes addr's valid line, leaving a tombstone if coherence,
// and returns its previous contents.
func (a *refArray) invalidate(addr uint64, coherence bool) (refLine, bool) {
	l := a.find(addr)
	if l == nil {
		return refLine{}, false
	}
	old := *l
	*l = emptyRefLine()
	if coherence {
		l.Tag, l.Tombstone = old.Tag, true
	}
	return old, true
}

func (a *refArray) lineAddr(set int, l refLine) uint64 {
	return (l.Tag*uint64(a.cfg.Sets()) + uint64(set)) * uint64(a.cfg.LineBytes)
}

type refHierarchy struct {
	l1    []*refArray
	llc   *refArray
	stats HierarchyStats
}

func newRefHierarchy(cores int, l1, llc Config) *refHierarchy {
	h := &refHierarchy{llc: newRefArray(llc)}
	for c := 0; c < cores; c++ {
		h.l1 = append(h.l1, newRefArray(l1))
	}
	for _, s := range []*[]uint64{
		&h.stats.L1Hits, &h.stats.L1Misses, &h.stats.LLCHits, &h.stats.LLCMisses,
		&h.stats.CoherenceMisses, &h.stats.Upgrades, &h.stats.Invalidations,
		&h.stats.DirtyForwards,
	} {
		*s = make([]uint64, cores)
	}
	return h
}

// invalidateOthers invalidates addr in every sharer's L1 but core's,
// leaving tombstones, and returns how many lines it invalidated.
func (h *refHierarchy) invalidateOthers(core int, addr uint64, ll *refLine) int {
	n := 0
	for c := range h.l1 {
		if c == core || ll.Sharers&(1<<uint(c)) == 0 {
			continue
		}
		if _, present := h.l1[c].invalidate(addr, true); present {
			h.stats.Invalidations[c]++
			n++
		}
	}
	return n
}

func (h *refHierarchy) access(core int, addr uint64, write bool) Outcome {
	var out Outcome
	l1 := h.l1[core]
	if l := l1.touch(addr); l != nil {
		h.stats.L1Hits[core]++
		out.L1Hit = true
		if write && l.State == refShared {
			out.Upgrade = true
			h.stats.Upgrades[core]++
			if ll := h.llc.find(addr); ll != nil {
				out.InvalidationsSent = h.invalidateOthers(core, addr, ll)
				ll.Sharers, ll.Owner = 1<<uint(core), core
			}
			l.State, l.Dirty = refModified, true
		}
		return out
	}

	h.stats.L1Misses[core]++
	if l1.hasTombstone(addr) {
		out.CoherenceMiss = true
		h.stats.CoherenceMisses[core]++
	}

	if ll := h.llc.touch(addr); ll != nil {
		h.stats.LLCHits[core]++
		out.LLCHit = true
		if ll.Owner >= 0 && ll.Owner != core {
			out.DirtyForward = true
			h.stats.DirtyForwards[core]++
			owner := ll.Owner
			if write {
				if _, present := h.l1[owner].invalidate(addr, true); present {
					h.stats.Invalidations[owner]++
					out.InvalidationsSent++
				}
				ll.Sharers &^= 1 << uint(owner)
			} else if ol := h.l1[owner].find(addr); ol != nil {
				ol.State, ol.Dirty = refShared, false
			}
			ll.Dirty, ll.Owner = true, -1
		}
		if write {
			out.InvalidationsSent += h.invalidateOthers(core, addr, ll)
			ll.Sharers, ll.Owner = 1<<uint(core), core
		} else {
			ll.Sharers |= 1 << uint(core)
		}
		h.fillL1(core, addr, write)
		return out
	}

	h.stats.LLCMisses[core]++
	ll, victim := h.llc.fill(addr)
	if victim.Valid {
		out.LLCVictimValid = true
		out.LLCVictimAddr = h.llc.lineAddr(h.llc.cfg.SetIndex(addr), victim)
		dirty := victim.Dirty || victim.Owner >= 0
		for c := range h.l1 {
			if victim.Sharers&(1<<uint(c)) == 0 {
				continue
			}
			if old, present := h.l1[c].invalidate(out.LLCVictimAddr, false); present && (old.State == refModified || old.Dirty) {
				dirty = true
			}
		}
		if dirty {
			out.LLCVictimDirty = true
			h.stats.LLCWritebacks++
		}
	}
	ll.Sharers = 1 << uint(core)
	if write {
		ll.Owner = core
	}
	h.fillL1(core, addr, write)
	return out
}

// fillL1 installs addr in core's L1 and folds an L1 victim back into its
// LLC line: sharer bit cleared, dirt written back, ownership dropped.
func (h *refHierarchy) fillL1(core int, addr uint64, write bool) {
	l1 := h.l1[core]
	l, victim := l1.fill(addr)
	l.State, l.Dirty = refShared, write
	if write {
		l.State = refModified
	}
	if !victim.Valid {
		return
	}
	vaddr := l1.lineAddr(l1.cfg.SetIndex(addr), victim)
	if vl := h.llc.find(vaddr); vl != nil {
		vl.Sharers &^= 1 << uint(core)
		if victim.State == refModified || victim.Dirty {
			vl.Dirty = true
		}
		if vl.Owner == core {
			vl.Owner = -1
		}
	}
}

// RefAccess is one access of a differential replay. It and
// ReplayAgainstReference are exported to the external test package, which
// records workload op streams (workload imports sim, which imports cache).
type RefAccess struct {
	Core  int
	Addr  uint64
	Write bool
}

// ReplayAgainstReference replays stream through Hierarchy.AccessTo, the
// simulator's entry point, and the reference model, failing on the first
// Outcome that differs, on a broken slot invariant (slotInvariant; after
// every access on the sets it touched, every 1,024 accesses and at the end
// on every set), and on final statistics that differ. One Outcome is reused
// across the replay, so a field AccessTo leaves unset shows as a stale value.
func ReplayAgainstReference(t *testing.T, cores int, l1, llc Config, stream []RefAccess) {
	t.Helper()
	h := NewHierarchy(cores, l1, llc)
	ref := newRefHierarchy(cores, l1, llc)
	var got Outcome
	for i, a := range stream {
		h.AccessTo(&got, a.Core, a.Addr, a.Write)
		want := ref.access(a.Core, a.Addr, a.Write)
		if got != want {
			t.Fatalf("access %d (core %d, %#x, write %v):\nhierarchy %+v\nreference %+v", i, a.Core, a.Addr, a.Write, got, want)
		}
		touched := []uint64{a.Addr}
		if got.LLCVictimValid {
			touched = append(touched, got.LLCVictimAddr)
		}
		err := h.slotInvariant(touched)
		if err == nil && i%1024 == 1023 {
			err = h.slotInvariant(nil)
		}
		if err != nil {
			t.Fatalf("after access %d: %v", i, err)
		}
	}
	if err := h.slotInvariant(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*h.Stats(), ref.stats) {
		t.Fatalf("statistics differ:\nhierarchy %+v\nreference %+v", *h.Stats(), ref.stats)
	}
}

// slotInvariant checks the stable-slot structure on the L1 and LLC sets
// addrs map to, or on every set when addrs is nil:
//   - every valid L1 way's slot names an LLC way holding its tag and its
//     core's sharer bit;
//   - every LLC set's order is a permutation of its slots whose empty slots
//     sit at the LRU tail (the LLC is never invalidated);
//   - every valid LLC slot's fingerprint is its tag's.
func (h *Hierarchy) slotInvariant(addrs []uint64) error {
	var l1Sets, llcSets []int
	if addrs == nil {
		for s := range h.l1[0].full {
			l1Sets = append(l1Sets, s)
		}
		for s := 0; s < len(h.llc.ways)/h.llc.assoc; s++ {
			llcSets = append(llcSets, s)
		}
	}
	for _, addr := range addrs {
		s, _ := h.l1[0].split(addr)
		l1Sets = append(l1Sets, s)
		s, _ = h.llc.split(addr)
		llcSets = append(llcSets, s)
	}
	for c := range h.l1 {
		l1 := &h.l1[c]
		for _, s := range l1Sets {
			for w, word := range l1.setWords(s) {
				if word&l1ValidBit == 0 {
					continue
				}
				addr := l1.victimAddr(s, word)
				llcSet, llcTag := h.llc.split(addr)
				line := h.llc.way(llcSet, l1Slot(word))
				if line.key>>llcTagShift != llcTag+1 || line.sharers&(1<<uint(c)) == 0 {
					return fmt.Errorf("core %d L1 set %d way %d (%#x): slot %d of LLC set %d holds key %#x, sharers %#x",
						c, s, w, addr, l1Slot(word), llcSet, line.key, line.sharers)
				}
			}
		}
	}
	for _, s := range llcSets {
		seen := make([]bool, h.llc.assoc)
		empty := false
		for p, slot := range h.llc.setOrder(s) {
			if int(slot) >= len(seen) || seen[slot] {
				return fmt.Errorf("LLC set %d: order %v is not a permutation", s, h.llc.setOrder(s))
			}
			seen[slot] = true
			key := h.llc.way(s, int(slot)).key
			if key == 0 {
				empty = true
				continue
			}
			if empty {
				return fmt.Errorf("LLC set %d: valid slot %d at order position %d follows an empty slot", s, slot, p)
			}
			fw := h.llc.fps[s*h.llc.fpWords+int(slot)>>3]
			if got, want := uint8(fw>>(uint(slot&7)*8)), fingerprint(key>>llcTagShift-1); got != want {
				return fmt.Errorf("LLC set %d slot %d: fingerprint %#x, want %#x", s, slot, got, want)
			}
		}
	}
	return nil
}

// FingerprintCollisions returns n line addresses, all in LLC set 0 of llc
// and all at or above 2^63, whose tags share one fingerprint byte: a stream
// over them defeats the lookup's pre-filter, so every probe falls through
// to full-key compares.
func FingerprintCollisions(llc Config, n int) []uint64 {
	g := newGeometry(llc)
	var out []uint64
	for tag := uint64(1) << (63 - g.setBits - g.lineShift); len(out) < n; tag++ {
		if fingerprint(tag) == 0x5A {
			out = append(out, g.join(0, tag))
		}
	}
	return out
}
