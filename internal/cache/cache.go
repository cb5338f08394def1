// Package cache implements the on-chip cache substrate of the simulated CMP:
// set-associative tag arrays with true-LRU replacement, per-core private L1
// data caches with MSI invalidation state, and a shared, inclusive last-level
// cache (LLC) that carries a sharer vector per line for directory-style
// coherence.
//
// The package is purely functional/structural: it models *which* accesses
// hit and *what* gets evicted or invalidated. Timing (latencies, bus and
// bank occupancy) is owned by internal/mem and internal/sim.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes the geometry of one cache.
type Config struct {
	// SizeBytes is the total data capacity.
	SizeBytes int64
	// Ways is the associativity.
	Ways int
	// LineBytes is the cache-line size (power of two).
	LineBytes int64
}

// Validate reports whether the geometry is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%int64(c.Ways) != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / int64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int {
	return int(c.SizeBytes / c.LineBytes / int64(c.Ways))
}

// LineAddr returns the line-granular address (byte address / line size).
func (c Config) LineAddr(addr uint64) uint64 {
	return addr / uint64(c.LineBytes)
}

// SetIndex returns the set an address maps to.
func (c Config) SetIndex(addr uint64) int {
	return int(c.LineAddr(addr) % uint64(c.Sets()))
}

// Tag returns the tag of an address.
func (c Config) Tag(addr uint64) uint64 {
	return c.LineAddr(addr) / uint64(c.Sets())
}

// State is the MSI coherence state of a private-cache line.
type State uint8

// Private-cache line states.
const (
	Invalid State = iota
	Shared
	Modified
)

// Line is one tag-array entry. The fields beyond Tag/Valid are used only by
// the cache level that needs them (coherence state in L1s, sharer vector in
// the LLC); keeping one struct avoids a zoo of near-identical types. The
// two 8-byte words lead so the struct packs into 24 bytes — set walks and
// MRU shifts move 25% less memory than the naive 32-byte layout.
type Line struct {
	Tag uint64
	// Sharers is a bit vector of cores holding the line in their L1
	// (LLC directory). Limits the simulated machine to 64 cores.
	Sharers uint64
	Valid   bool
	Dirty   bool
	// State is the MSI state for private caches.
	State State
	// OwnerMod is the core holding the line Modified in its L1, or -1.
	OwnerMod int8
	// InsertedBy is the core whose miss installed the line (LLC only).
	InsertedBy int8
	// CoherenceInvalid marks an L1 tombstone: the line was invalidated by a
	// coherence action (remote store) rather than replaced. A subsequent
	// miss that matches the tombstone is a coherence miss. Per the paper
	// (Section 4.5), the status bits are updated while the tag remains in
	// the array, which is exactly what makes this classification possible.
	CoherenceInvalid bool
}

// Array is a set-associative tag array with true-LRU replacement. Ways are
// stored in MRU-to-LRU order within each set; with the small associativities
// used here (<= 16 ways) the shift on promotion is cheaper and simpler than
// per-line counters.
//
// The geometry is precomputed once at construction: because line size and
// set count are powers of two (Config.Validate enforces both), the
// per-access address decomposition is two shifts and a mask instead of the
// int64 divisions Config's own methods pay. Every per-access operation runs
// in a single pass over the set.
type Array struct {
	sets [][]Line

	lineShift uint   // log2(LineBytes): lineAddr = addr >> lineShift
	setBits   uint   // log2(Sets): tag = lineAddr >> setBits
	setMask   uint64 // Sets-1: set = lineAddr & setMask

	// full[set] records that the set holds no invalid ways, letting insert
	// skip its victim scan: a full set always evicts the LRU way. Sets
	// only lose lines through invalidate (which clears the flag), so in
	// steady state — an LLC set is never invalidated — the scan runs once.
	full []bool
}

// NewArray allocates a tag array for the given geometry. It panics on an
// invalid configuration: geometry is static builder input, not runtime data.
func NewArray(cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]Line, cfg.Sets())
	backing := make([]Line, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
		for w := range sets[i] {
			sets[i][w].OwnerMod = -1
			sets[i][w].InsertedBy = -1
		}
	}
	return &Array{
		sets:      sets,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setBits:   uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		setMask:   uint64(cfg.Sets()) - 1,
		full:      make([]bool, cfg.Sets()),
	}
}

// Reset restores the array to its just-constructed state, reusing the
// backing storage (machine pooling across simulation runs).
func (a *Array) Reset() {
	for _, s := range a.sets {
		for w := range s {
			s[w] = Line{OwnerMod: -1, InsertedBy: -1}
		}
	}
	for i := range a.full {
		a.full[i] = false
	}
}

// SetIndex returns the set addr maps to (precomputed shift/mask fast path;
// equals Config.SetIndex).
func (a *Array) SetIndex(addr uint64) int {
	return int((addr >> a.lineShift) & a.setMask)
}

// Tag returns addr's tag (precomputed shift fast path; equals Config.Tag).
func (a *Array) Tag(addr uint64) uint64 {
	return addr >> a.lineShift >> a.setBits
}

// lookup walks (set, tag) exactly once: on a hit the line is promoted to
// MRU and a pointer to it (now at way 0) returned; on a miss it reports
// whether the set holds a coherence tombstone of the tag. A valid line and
// a tombstone never share a tag within a set (insert consumes and
// defensively clears same-tag tombstones), so stopping the walk at a hit
// cannot miss a tombstone that matters.
func (a *Array) lookup(set int, tag uint64) (line *Line, hit, tombstone bool) {
	s := a.sets[set]
	for w := range s {
		l := &s[w]
		// Tag first: in the common mismatch case this is the only branch
		// taken per way.
		if l.Tag == tag {
			if l.Valid {
				if w != 0 {
					moved := *l
					copy(s[1:w+1], s[0:w])
					s[0] = moved
				}
				return &s[0], true, false
			}
			if l.CoherenceInvalid {
				tombstone = true
			}
		}
	}
	return nil, false, tombstone
}

// probeLine returns the valid line holding (set, tag) without touching
// replacement state, or nil. Used by the paths that must not promote:
// upgrade handling and L1-victim writeback into the LLC.
func (a *Array) probeLine(set int, tag uint64) *Line {
	s := a.sets[set]
	for w := range s {
		if s[w].Tag == tag && s[w].Valid {
			return &s[w]
		}
	}
	return nil
}

// insert installs (set, tag) as MRU, evicting the LRU entry of the set if
// every way is valid, and returns a pointer to the installed line. Invalid
// entries (including tombstones) are consumed first, preferring the
// LRU-most invalid way; a tombstone of the same tag is always consumed, so
// a stale coherence marker cannot survive the line's return.
func (a *Array) insert(set int, tag uint64) (mru *Line, victim Line, evicted bool) {
	s := a.sets[set]
	way := len(s) - 1
	consumed := false // the fill way is a tombstone of this tag
	if !a.full[set] {
		way = -1
		invalids := 0
		for w := len(s) - 1; w >= 0; w-- {
			if !s[w].Valid {
				invalids++
				if way < 0 {
					way = w
				}
				if s[w].CoherenceInvalid && s[w].Tag == tag {
					way = w
					consumed = true
					break
				}
			}
		}
		if way < 0 {
			way = len(s) - 1
			a.full[set] = true
		} else if !consumed && invalids == 1 {
			// The completed scan found exactly one invalid way and this
			// insert consumes it, so the set is full from here on. (An
			// early tombstone break leaves the count unknown; the flag
			// stays clear and the next insert rescans.)
			a.full[set] = true
		}
	}
	victim = s[way]
	evicted = victim.Valid
	// Shift everything down and install at MRU position.
	copy(s[1:way+1], s[0:way])
	s[0] = Line{
		Tag:        tag,
		Valid:      true,
		OwnerMod:   -1,
		InsertedBy: -1,
	}
	if consumed {
		// The selection scan stopped at the consumed tombstone, so the
		// more-MRU ways were not examined: defensively clear any stale
		// tombstone of this tag. (When the scan completed without a
		// break it examined every way and proved no such tombstone
		// exists, so this pass is skipped.)
		for w := 1; w < len(s); w++ {
			if !s[w].Valid && s[w].CoherenceInvalid && s[w].Tag == tag {
				s[w].CoherenceInvalid = false
				s[w].Tag = 0
			}
		}
	}
	return &s[0], victim, evicted
}

// invalidate removes (set, tag) from the array if present. If coherence is
// true the entry is kept as a tombstone (tag retained, valid bit cleared,
// CoherenceInvalid set) so a later access can be classified as a coherence
// miss; otherwise the entry is fully cleared. It returns the line's previous
// contents and whether the line was present.
func (a *Array) invalidate(set int, tag uint64, coherence bool) (old Line, present bool) {
	l := a.probeLine(set, tag)
	if l == nil {
		return Line{}, false
	}
	a.full[set] = false
	old = *l
	l.Valid = false
	l.Dirty = false
	l.State = Invalid
	l.Sharers = 0
	l.OwnerMod = -1
	if coherence {
		l.CoherenceInvalid = true
	} else {
		l.Tag = 0
		l.CoherenceInvalid = false
	}
	return old, true
}

// VictimAddr reconstructs the base byte address of a victim line evicted
// from set.
func (a *Array) VictimAddr(set int, v Line) uint64 {
	return (v.Tag<<a.setBits | uint64(set)) << a.lineShift
}
