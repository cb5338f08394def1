// Package cache implements the on-chip cache substrate of the simulated CMP:
// per-core private L1 data caches with MSI invalidation state over a shared,
// inclusive last-level cache (LLC) that carries a sharer vector per line for
// directory-style coherence, both with true-LRU replacement.
//
// Each level's tag array holds only what that level reads. An L1 way is one
// word — tag, the slot its line occupies in the LLC set, and a 2-bit state
// (empty, coherence tombstone, Shared, Modified) — so an 8-way set is 64
// bytes, one host cache line. The L1 keeps its ways in MRU-to-LRU order. An
// LLC way is 16 bytes: a biased tag with the dirty bit and Modified owner,
// and the sharer vector. An LLC line stays in one slot from insert to
// eviction: a per-set byte array of slot indices holds the MRU-to-LRU order,
// so replacement takes the last entry with no victim search, and a one-byte
// tag fingerprint per slot lets a lookup compare eight slots per word before
// it reads any full tag. Because the slot is stable, an L1 line reaches its
// LLC line through the slot it stores, with no second tag search.
//
// The package is purely functional/structural: it models *which* accesses
// hit and *what* gets evicted or invalidated. Timing (latencies, bus and
// bank occupancy) is owned by internal/mem and internal/sim.
package cache

import (
	"errors"
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

// minWayBytes is the smallest way (SizeBytes/Ways, i.e. Sets × LineBytes)
// the packed tag arrays accept. A tag is the address bits above
// log2(SizeBytes/Ways), so a way of at least 2^9 bytes leaves nine free
// bits below every tag: the LLC's biased tag needs one, its dirty bit and
// owner field the other eight; the L1's LLC slot needs seven and its state
// two.
const minWayBytes = 1 << (llcTagShift + 1)

// maxWays is the largest associativity the packed tag arrays accept: a
// set's ways are indexed with l1SlotBits bits, in the L1's back-pointer to
// its LLC slot and in the LLC's byte-wide order array.
const maxWays = 1 << l1SlotBits

// ErrWayTooSmall rejects a geometry whose ways (SizeBytes/Ways) are smaller
// than the 512 bytes the packed tag arrays need to hold every 64-bit
// address's tag exactly.
var ErrWayTooSmall = errors.New("cache: way (SizeBytes/Ways) smaller than 512 bytes")

// ErrTooManyWays rejects a geometry with more than 128 ways, which
// the 7-bit slot index cannot name.
var ErrTooManyWays = errors.New("cache: more than 128 ways")

// Validate reports whether the geometry is internally consistent and fits
// the packed tag arrays: ErrWayTooSmall for ways under 512 bytes,
// ErrTooManyWays for more than 128 ways.
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
	if way := sets * c.LineBytes; way < minWayBytes {
		return fmt.Errorf("%w: %+v has %d-byte ways", ErrWayTooSmall, c, way)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("%w: %+v", ErrTooManyWays, c)
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

// geometry is a tag array's address decomposition, precomputed once:
// because line size and set count are powers of two (Config.Validate
// enforces both), splitting an address is two shifts and a mask instead of
// the int64 divisions Config's own methods pay.
type geometry struct {
	lineShift uint   // log2(LineBytes): lineAddr = addr >> lineShift
	setBits   uint   // log2(Sets): tag = lineAddr >> setBits
	setMask   uint64 // Sets-1: set = lineAddr & setMask
	assoc     int    // ways per set
}

// newGeometry validates cfg and precomputes its decomposition. It panics on
// an invalid configuration: geometry is static builder input, not runtime
// data.
func newGeometry(cfg Config) geometry {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return geometry{
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setBits:   uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		setMask:   uint64(cfg.Sets()) - 1,
		assoc:     cfg.Ways,
	}
}

// split returns the set and tag addr maps to (Config.SetIndex, Config.Tag).
func (g geometry) split(addr uint64) (set int, tag uint64) {
	line := addr >> g.lineShift
	return int(line & g.setMask), line >> g.setBits
}

// join is split's inverse: the base byte address of (set, tag).
func (g geometry) join(set int, tag uint64) uint64 {
	return (tag<<g.setBits | uint64(set)) << g.lineShift
}

// An L1 way is one word: the tag, then the l1SlotBits-bit slot its line
// occupies in its LLC set (the LLC never moves a line, so the slot stays
// right until inclusion purges the L1 copy), then a 2-bit state. Shared and
// Modified both carry l1ValidBit; a Modified line is exactly a dirty one
// (every L1 transition sets or clears both together), so no dirty bit is
// kept. The zero word is an empty way; a tombstone's slot bits are zero.
const (
	l1Empty     uint64 = iota // no line and no tombstone
	l1Tombstone               // invalidated by a remote store, tag kept
	l1Shared
	l1Modified

	l1StateBits = 2
	l1StateMask = 1<<l1StateBits - 1
	l1ValidBit  = l1Shared // set in l1Shared and l1Modified only

	l1SlotBits = 7
	l1SlotMask = 1<<l1SlotBits - 1
	l1TagShift = l1StateBits + l1SlotBits
	l1LowMask  = 1<<l1TagShift - 1 // slot and state
)

// l1Slot returns the LLC slot a valid L1 word's line occupies.
func l1Slot(word uint64) int { return int(word >> l1StateBits & l1SlotMask) }

// l1Array is one core's private L1 tag array: Sets × Ways words, each set's
// ways in MRU-to-LRU order. A tombstone keeps its tag because the paper
// (Section 4.5) updates the status bits while the tag stays in the array,
// which is what lets a later miss on it classify as a coherence miss.
type l1Array struct {
	geometry
	words []uint64

	// full[set] records that the set holds no invalid ways, letting insert
	// skip its victim scan: a full set always evicts the LRU way. Sets only
	// lose lines through invalidate, which clears the flag.
	full []bool
}

func newL1Array(cfg Config) l1Array {
	g := newGeometry(cfg)
	return l1Array{
		geometry: g,
		words:    make([]uint64, cfg.Sets()*cfg.Ways),
		full:     make([]bool, cfg.Sets()),
	}
}

// reset empties the array, reusing its storage.
func (a *l1Array) reset() {
	clear(a.words)
	clear(a.full)
}

func (a *l1Array) setWords(set int) []uint64 {
	base := set * a.assoc
	return a.words[base : base+a.assoc : base+a.assoc]
}

// lookup walks (set, tag) once: on a hit the way is promoted to MRU and a
// pointer to it (now way 0) returned; on a miss it reports whether the set
// holds a coherence tombstone of the tag. A valid way and a tombstone never
// share a tag within a set (insert consumes same-tag tombstones), so
// stopping the walk at a hit cannot miss a tombstone that matters.
func (a *l1Array) lookup(set int, tag uint64) (way *uint64, tombstone bool) {
	s := a.setWords(set)
	key := tag << l1TagShift
	for w, word := range s {
		if word&^l1LowMask != key {
			continue
		}
		if word&l1ValidBit != 0 {
			if w != 0 {
				copy(s[1:w+1], s[:w])
				s[0] = word
			}
			return &s[0], false
		}
		if word == key|l1Tombstone {
			tombstone = true
		}
	}
	return nil, tombstone
}

// probe returns the valid way holding (set, tag) without touching the LRU
// order, or nil.
func (a *l1Array) probe(set int, tag uint64) *uint64 {
	s := a.setWords(set)
	key := tag << l1TagShift
	for w, word := range s {
		if word&^l1LowMask == key && word&l1ValidBit != 0 {
			return &s[w]
		}
	}
	return nil
}

// insert installs (set, tag) as MRU in the given state, pointing at LLC
// slot slot, and returns the way it displaced, evicted when that way was
// valid. Invalid ways (tombstones included) are consumed first, the
// LRU-most one preferred; a tombstone of the same tag is always consumed,
// so a stale coherence marker cannot survive the line's return.
func (a *l1Array) insert(set int, tag uint64, slot int, state uint64) (victim uint64, evicted bool) {
	s := a.setWords(set)
	key := tag << l1TagShift
	way := len(s) - 1
	consumed := false // the fill way is a tombstone of this tag
	if !a.full[set] {
		way = -1
		invalids := 0
		for w := len(s) - 1; w >= 0; w-- {
			if s[w]&l1ValidBit == 0 {
				invalids++
				if way < 0 {
					way = w
				}
				if s[w] == key|l1Tombstone {
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
	copy(s[1:way+1], s[:way])
	s[0] = key | uint64(slot)<<l1StateBits | state
	if consumed {
		// The scan stopped at the consumed tombstone without examining the
		// more-MRU ways: defensively clear any stale tombstone of this tag.
		for w := 1; w < len(s); w++ {
			if s[w] == key|l1Tombstone {
				s[w] = l1Empty
			}
		}
	}
	return victim, victim&l1ValidBit != 0
}

// invalidate removes (set, tag) from the array if present, leaving a
// tombstone if coherence is true and an empty way otherwise. It returns the
// way's previous word and whether the line was present.
func (a *l1Array) invalidate(set int, tag uint64, coherence bool) (old uint64, present bool) {
	w := a.probe(set, tag)
	if w == nil {
		return 0, false
	}
	a.full[set] = false
	old = *w
	*w = l1Empty
	if coherence {
		*w = tag<<l1TagShift | l1Tombstone
	}
	return old, true
}

// victimAddr is the base byte address of the line word held in set.
func (a *l1Array) victimAddr(set int, word uint64) uint64 {
	return a.join(set, word>>l1TagShift)
}

// An LLC way's key word packs (tag+1) above the dirty bit and the Modified
// owner as owner+1 (0: no owner; NewHierarchy caps cores at MaxCores). The zero
// key is an empty way, so no valid bit is needed, and ErrWayTooSmall's rule
// keeps tag+1 below 2^55 so the shift never drops a bit.
const (
	llcOwnerMask        = 1<<7 - 1
	llcDirty     uint64 = 1 << 7
	llcTagShift         = 8
)

// llcWay is one 16-byte LLC way.
type llcWay struct {
	key uint64
	// sharers is a bit vector of the cores holding the line in their L1
	// (the directory). Limits the simulated machine to MaxCores cores.
	sharers uint64
}

// owner returns the core holding the line Modified in its L1, or -1.
func (l *llcWay) owner() int { return int(l.key&llcOwnerMask) - 1 }

func (l *llcWay) setOwner(core int) { l.key = l.key&^llcOwnerMask | uint64(core+1) }

// fingerprint is the one-byte tag summary an LLC slot is pre-filtered by:
// the top byte of a multiplicative hash, so tags that differ only in high
// bits (the same offset in two address regions) still differ in it.
func fingerprint(tag uint64) uint8 { return uint8(tag * 0x9E3779B97F4A7C15 >> 56) }

// SWAR byte lanes: every byte 0x01, every byte 0x7F.
const (
	lanes01 = 0x0101010101010101
	lanes7F = 0x7F7F7F7F7F7F7F7F
)

// llcArray is the shared LLC's tag array: Sets × Ways slots, each holding
// one line from insert to eviction. Per set, order lists the slots from MRU
// to LRU, and fps holds each slot's tag fingerprint, eight to a word (slot
// i in byte i%8 of word i/8; bytes past Ways are padding). The LLC is never
// invalidated (only L1s are), so the empty slots always sit at the LRU tail
// of order: insert always takes the last one.
type llcArray struct {
	geometry
	ways    []llcWay
	order   []uint8
	fps     []uint64
	fpWords int // fps words per set: ceil(Ways/8)
}

func newLLCArray(cfg Config) llcArray {
	a := llcArray{
		geometry: newGeometry(cfg),
		ways:     make([]llcWay, cfg.Sets()*cfg.Ways),
		order:    make([]uint8, cfg.Sets()*cfg.Ways),
		fpWords:  (cfg.Ways + 7) / 8,
	}
	a.fps = make([]uint64, cfg.Sets()*a.fpWords)
	a.reset()
	return a
}

// reset empties the array, reusing its storage: every way and fingerprint
// zero, every set's order the identity.
func (a *llcArray) reset() {
	clear(a.ways)
	clear(a.fps)
	for i := range a.order {
		a.order[i] = uint8(i % a.assoc)
	}
}

// way returns the way in slot slot of set.
func (a *llcArray) way(set, slot int) *llcWay { return &a.ways[set*a.assoc+slot] }

func (a *llcArray) setOrder(set int) []uint8 {
	base := set * a.assoc
	return a.order[base : base+a.assoc : base+a.assoc]
}

// find returns the slot holding (set, tag), or -1, without touching the
// LRU order. It compares the tag's fingerprint against eight slots per
// fps word and reads a slot's full key only where the byte matches.
func (a *llcArray) find(set int, tag uint64) int {
	biased := tag + 1
	want := uint64(fingerprint(tag)) * lanes01
	base := set * a.assoc
	fps := a.fps[set*a.fpWords : (set+1)*a.fpWords]
	for i, word := range fps {
		// Exact per-byte equality: bit 7 of each byte of m is set where
		// the byte of word equals the fingerprint.
		x := word ^ want
		m := ^((x&lanes7F + lanes7F) | x | lanes7F)
		for ; m != 0; m &= m - 1 {
			slot := i<<3 + bits.TrailingZeros64(m)>>3
			if slot >= a.assoc {
				break // padding lanes
			}
			if a.ways[base+slot].key>>llcTagShift == biased {
				return slot
			}
		}
	}
	return -1
}

// lookup returns the slot holding (set, tag) promoted to MRU, or -1.
func (a *llcArray) lookup(set int, tag uint64) int {
	slot := a.find(set, tag)
	if slot < 0 {
		return -1
	}
	order := a.setOrder(set)
	s := uint8(slot)
	for p := range order {
		if order[p] == s {
			copy(order[1:p+1], order[:p])
			order[0] = s
			break
		}
	}
	return slot
}

// insert installs (set, tag) as MRU with no sharers, owner or dirt in the
// LRU slot, and returns that slot with the way it displaced (key 0 when the
// slot was empty).
func (a *llcArray) insert(set int, tag uint64) (slot int, victim llcWay) {
	order := a.setOrder(set)
	last := len(order) - 1
	s := order[last]
	copy(order[1:], order[:last])
	order[0] = s
	slot = int(s)
	w := a.way(set, slot)
	victim = *w
	*w = llcWay{key: (tag + 1) << llcTagShift}
	fw := &a.fps[set*a.fpWords+slot>>3]
	shift := uint(slot&7) * 8
	*fw = *fw&^(0xFF<<shift) | uint64(fingerprint(tag))<<shift
	return slot, victim
}

// victimAddr is the base byte address of the line v held in set.
func (a *llcArray) victimAddr(set int, v llcWay) uint64 {
	return a.join(set, v.key>>llcTagShift-1)
}
