// Package atd implements the Auxiliary Tag Directory of the per-thread cycle
// accounting architecture (paper Section 4.1–4.2).
//
// One ATD exists per core. It maintains the tags a *private* LLC of the same
// geometry as the shared LLC would hold for that core alone, so that shared
// vs. private behaviour can be compared access by access:
//
//   - shared-LLC miss that hits in the ATD  -> inter-thread miss
//     (negative interference: sharing evicted this core's data)
//   - shared-LLC hit that misses in the ATD -> inter-thread hit
//     (positive interference: another thread fetched data this core reuses)
//
// To bound hardware cost only a subset of sets is monitored (set sampling);
// penalties measured on sampled sets are extrapolated by the sampling
// factor. A SampleShift of 0 monitors every set: that configuration of the
// same directory is the ground truth a sampled one is judged against (on a
// sampled set the two are the same LRU over the same stream), so a machine
// carries one directory per core and no separate oracle.
package atd

import (
	"fmt"
	"math/bits"
)

// Config describes one per-core ATD.
type Config struct {
	// Sets and Ways mirror the shared LLC geometry.
	Sets int
	Ways int
	// LineBytes is the cache-line size.
	LineBytes int64
	// SampleShift selects 1-in-2^SampleShift sets for monitoring
	// (set is sampled iff set % 2^SampleShift == 0). Zero monitors all sets.
	SampleShift uint
	// TagBits is the number of tag bits stored per entry. The simulation
	// ignores it; it documents the geometry core.Cost prices (Section 4.7).
	TagBits int
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("atd: non-positive geometry %+v", c)
	}
	if c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("atd: set count %d not a power of two", c.Sets)
	}
	if c.Sets>>c.SampleShift == 0 {
		return fmt.Errorf("atd: sample shift %d leaves no sampled sets", c.SampleShift)
	}
	return nil
}

// SampledSets returns the number of monitored sets.
func (c Config) SampledSets() int { return c.Sets >> c.SampleShift }

// Directory is one core's ATD. Only sampled sets are backed by storage.
//
// Tags are stored flat (one backing array, Ways-strided rows) with a +1
// bias so that entry 0 means "empty": the bias folds the valid bit into the
// tag word, halving the state walked per access. The address decomposition
// is precomputed shift/mask arithmetic (set count and line size are powers
// of two), mirroring the LLC's geometry.
type Directory struct {
	cfg  Config
	mask uint64 // set is sampled iff set&mask == 0
	// tags holds Ways-strided MRU-ordered rows of biased tags (tag+1;
	// 0 = empty way).
	tags []uint64

	lineShift uint   // log2(LineBytes)
	setBits   uint   // log2(Sets): tag = lineAddr >> setBits
	setMask   uint64 // Sets-1

	sampledAccesses uint64
}

// New builds a Directory.
func New(cfg Config) *Directory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Directory{
		cfg:       cfg,
		mask:      (1 << cfg.SampleShift) - 1,
		tags:      make([]uint64, cfg.SampledSets()*cfg.Ways),
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setBits:   uint(bits.TrailingZeros64(uint64(cfg.Sets))),
		setMask:   uint64(cfg.Sets) - 1,
	}
}

// Config returns the directory configuration.
func (d *Directory) Config() Config { return d.cfg }

// Reset empties the directory, reusing its tag storage (machine pooling
// across simulation runs).
func (d *Directory) Reset() {
	for i := range d.tags {
		d.tags[i] = 0
	}
	d.sampledAccesses = 0
}

// setIndex and tag mirror the LLC address mapping.
func (d *Directory) setIndex(addr uint64) int {
	return int((addr >> d.lineShift) & d.setMask)
}

func (d *Directory) tag(addr uint64) uint64 {
	return addr >> d.lineShift >> d.setBits
}

// SampledSet reports whether the given set is monitored. It is small enough
// to inline, letting callers skip the AccessSetTag call entirely for the
// (1 - 2^-SampleShift) of accesses that fall outside the sample.
func (d *Directory) SampledSet(set int) bool {
	return uint64(set)&d.mask == 0
}

// Access simulates the private-LLC lookup for addr: it reports whether the
// private cache would have hit, then updates LRU state and installs the line
// on a miss. For non-sampled sets it reports sampled=false and does nothing.
func (d *Directory) Access(addr uint64) (hit, sampled bool) {
	return d.AccessSetTag(d.setIndex(addr), d.tag(addr))
}

// AccessSetTag is Access with the address already decomposed into the LLC's
// (set, tag) pair: the simulator decomposes each LLC access once, and the
// directory's geometry mirrors the LLC's, so the mapping is shared.
func (d *Directory) AccessSetTag(set int, tag uint64) (hit, sampled bool) {
	if uint64(set)&d.mask != 0 {
		return false, false
	}
	d.sampledAccesses++
	row := (set >> d.cfg.SampleShift) * d.cfg.Ways
	tags := d.tags[row : row+d.cfg.Ways]
	btag := tag + 1
	// One walk serves both outcomes: the hit check and, for misses, the
	// LRU-most empty way (the last zero seen equals what a backward scan
	// would pick first).
	empty := -1
	for w := range tags {
		if tags[w] == btag {
			// Promote to MRU.
			copy(tags[1:w+1], tags[0:w])
			tags[0] = btag
			return true, true
		}
		if tags[w] == 0 {
			empty = w
		}
	}
	// Miss: install as MRU, evicting LRU (or filling the empty way).
	way := len(tags) - 1
	if empty >= 0 {
		way = empty
	}
	copy(tags[1:way+1], tags[0:way])
	tags[0] = btag
	return false, true
}

// SampledAccesses returns how many accesses fell in monitored sets, used to
// compute the run-time sampling factor (total LLC accesses / sampled
// accesses) per the paper's Section 4.2.
func (d *Directory) SampledAccesses() uint64 { return d.sampledAccesses }
