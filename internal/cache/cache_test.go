package cache

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func smallCfg() Config {
	return Config{SizeBytes: 4096, Ways: 4, LineBytes: 64} // 16 sets
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 4096, Ways: 0, LineBytes: 64},
		{SizeBytes: 4096, Ways: 4, LineBytes: 48},      // not a power of two
		{SizeBytes: 4096 + 64, Ways: 4, LineBytes: 64}, // lines not divisible
		{SizeBytes: 4096 * 3, Ways: 4, LineBytes: 64},  // sets not power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	// The packed arrays need 9 bits below every tag: 512-byte ways.
	if err := (Config{SizeBytes: 1024, Ways: 2, LineBytes: 64}).Validate(); err != nil {
		t.Errorf("512-byte ways rejected: %v", err)
	}
	for _, c := range []Config{
		{SizeBytes: 512, Ways: 2, LineBytes: 64},  // 4 sets x 64 B
		{SizeBytes: 4096, Ways: 16, LineBytes: 8}, // 32 sets x 8 B
		{SizeBytes: 64, Ways: 64, LineBytes: 1},   // one set of 1-byte lines
	} {
		if err := c.Validate(); !errors.Is(err, ErrWayTooSmall) {
			t.Errorf("%+v: %v, want ErrWayTooSmall", c, err)
		}
	}
	// The 7-bit slot index names at most 128 ways.
	if err := (Config{SizeBytes: 128 * 4096, Ways: 128, LineBytes: 64}).Validate(); err != nil {
		t.Errorf("128 ways rejected: %v", err)
	}
	if err := (Config{SizeBytes: 256 * 4096, Ways: 256, LineBytes: 64}).Validate(); !errors.Is(err, ErrTooManyWays) {
		t.Errorf("256 ways: %v, want ErrTooManyWays", err)
	}
}

func TestAddressMapping(t *testing.T) {
	c := smallCfg()
	if c.Sets() != 16 {
		t.Fatalf("sets = %d, want 16", c.Sets())
	}
	// Consecutive lines map to consecutive sets, wrapping.
	for i := 0; i < 64; i++ {
		addr := uint64(i * 64)
		if got, want := c.SetIndex(addr), i%16; got != want {
			t.Fatalf("SetIndex(%#x) = %d, want %d", addr, got, want)
		}
	}
	// Same set, different tags.
	a1, a2 := uint64(0), uint64(16*64)
	if c.SetIndex(a1) != c.SetIndex(a2) {
		t.Fatal("addresses should map to the same set")
	}
	if c.Tag(a1) == c.Tag(a2) {
		t.Fatal("tags should differ")
	}
	// The arrays' shift/mask geometry against Config's division-based
	// reference, on the test geometry and the paper machine's LLC, over the
	// whole 64-bit address space; join must invert split.
	for _, cfg := range []Config{c, {SizeBytes: 2 << 20, Ways: 16, LineBytes: 64}} {
		g := newGeometry(cfg)
		rng := trace.NewRNG(7)
		for i := 0; i < 10000; i++ {
			addr := rng.Uint64()
			set, tag := g.split(addr)
			if set != cfg.SetIndex(addr) || tag != cfg.Tag(addr) {
				t.Fatalf("%+v addr %#x: array maps to (%d, %#x), reference to (%d, %#x)", cfg, addr,
					set, tag, cfg.SetIndex(addr), cfg.Tag(addr))
			}
			if base := addr &^ uint64(cfg.LineBytes-1); g.join(set, tag) != base {
				t.Fatalf("%+v: join(split(%#x)) = %#x, want %#x", cfg, addr, g.join(set, tag), base)
			}
		}
	}
}

// The helpers below drive an L1 array by address through the entry points
// Hierarchy.AccessTo runs — lookup, insert, probe, invalidate — so the array
// tests cover the production walks, not a parallel API.

func newL1(cfg Config) *l1Array {
	a := new(l1Array)
	a.reset(cfg)
	return a
}

func newLLC(cfg Config) *llcArray {
	a := new(llcArray)
	a.reset(cfg)
	return a
}

func lookupAddr(a *l1Array, addr uint64) (hit, tombstone bool) {
	way, tombstone := a.lookup(a.split(addr))
	return way != nil, tombstone
}

func insertAddr(a *l1Array, addr uint64) (victim uint64, evicted bool) {
	set, tag := a.split(addr)
	return a.insert(set, tag, 0, l1Shared)
}

func presentAddr(a *l1Array, addr uint64) bool {
	return a.probe(a.split(addr)) != nil
}

func invalidateAddr(a *l1Array, addr uint64, coherence bool) bool {
	set, tag := a.split(addr)
	_, present := a.invalidate(set, tag, coherence)
	return present
}

func TestArrayInsertProbeTouch(t *testing.T) {
	a := newL1(smallCfg())
	addr := uint64(0x1000)
	if hit, _ := lookupAddr(a, addr); hit || presentAddr(a, addr) {
		t.Fatal("empty array must miss")
	}
	if _, evicted := insertAddr(a, addr); evicted {
		t.Fatal("insertion into empty set must not evict")
	}
	if hit, _ := lookupAddr(a, addr); !hit || !presentAddr(a, addr) {
		t.Fatal("inserted line must hit")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := newL1(smallCfg())
	set0 := func(i int) uint64 { return uint64(i) * 16 * 64 } // all map to set 0
	for i := 0; i < 4; i++ {
		insertAddr(a, set0(i))
	}
	// A lookup hit promotes line 0; line 1 becomes LRU. probeLine must not
	// promote: probing line 1 leaves it the victim.
	if hit, _ := lookupAddr(a, set0(0)); !hit {
		t.Fatal("line 0 missing")
	}
	if !presentAddr(a, set0(1)) {
		t.Fatal("line 1 missing")
	}
	victim, evicted := insertAddr(a, set0(4))
	if !evicted {
		t.Fatal("full set must evict")
	}
	if vaddr := a.victimAddr(0, victim); vaddr != set0(1) {
		t.Fatalf("evicted %#x, want LRU %#x", vaddr, set0(1))
	}
	if !presentAddr(a, set0(0)) {
		t.Fatal("recently-touched line was evicted")
	}
}

func TestArrayInvalidateTombstone(t *testing.T) {
	a := newL1(smallCfg())
	addr := uint64(0x40)
	insertAddr(a, addr)
	if !invalidateAddr(a, addr, true) {
		t.Fatal("invalidate missed present line")
	}
	hit, tombstone := lookupAddr(a, addr)
	if hit {
		t.Fatal("invalidated line still hits")
	}
	if !tombstone {
		t.Fatal("coherence tombstone missing")
	}
	// Non-coherence invalidation leaves no tombstone.
	insertAddr(a, addr)
	invalidateAddr(a, addr, false)
	if _, tombstone := lookupAddr(a, addr); tombstone {
		t.Fatal("capacity invalidation left a tombstone")
	}
}

func TestArrayInvalidateAbsent(t *testing.T) {
	a := newL1(smallCfg())
	if invalidateAddr(a, 0x123400, true) {
		t.Fatal("invalidate of absent line reported present")
	}
}

// referenceLRU is an oracle model: per set, a slice ordered MRU..LRU.
type referenceLRU struct {
	cfg  Config
	sets map[int][]uint64
}

func (r *referenceLRU) access(addr uint64) bool {
	set := r.cfg.SetIndex(addr)
	tag := r.cfg.Tag(addr)
	s := r.sets[set]
	for i, tg := range s {
		if tg == tag {
			copy(s[1:i+1], s[:i])
			s[0] = tag
			return true
		}
	}
	s = append([]uint64{tag}, s...)
	if len(s) > r.cfg.Ways {
		s = s[:r.cfg.Ways]
	}
	r.sets[set] = s
	return false
}

// TestArrayMatchesReferenceLRU holds both arrays' replacement, on their own,
// to the reference's: the miss walk then the fill, as Hierarchy.AccessTo runs
// them.
func TestArrayMatchesReferenceLRU(t *testing.T) {
	cfg := smallCfg()
	l1 := newL1(cfg)
	llc := newLLC(cfg)
	refL1 := &referenceLRU{cfg: cfg, sets: map[int][]uint64{}}
	refLLC := &referenceLRU{cfg: cfg, sets: map[int][]uint64{}}
	rng := trace.NewRNG(1234)
	for i := 0; i < 50000; i++ {
		addr := rng.Uint64n(4096*4) / 8 * 8
		hit, _ := lookupAddr(l1, addr)
		if !hit {
			insertAddr(l1, addr)
		}
		if refHit := refL1.access(addr); hit != refHit {
			t.Fatalf("access %d (%#x): L1 hit=%v, reference hit=%v", i, addr, hit, refHit)
		}
		set, tag := llc.split(addr)
		hit = llc.lookup(set, tag) >= 0
		if !hit {
			llc.insert(set, tag)
		}
		if refHit := refLLC.access(addr); hit != refHit {
			t.Fatalf("access %d (%#x): LLC hit=%v, reference hit=%v", i, addr, hit, refHit)
		}
	}
}

func TestHierarchyBasicMSI(t *testing.T) {
	h := NewHierarchy(2, smallCfg(), Config{SizeBytes: 16384, Ways: 4, LineBytes: 64})
	addr := uint64(0x80)

	out := h.Access(0, addr, false)
	if out.L1Hit || out.LLCHit {
		t.Fatalf("cold access should miss everywhere: %+v", out)
	}
	out = h.Access(0, addr, false)
	if !out.L1Hit {
		t.Fatal("second access should hit L1")
	}

	// Core 1 reads: misses L1, hits LLC.
	out = h.Access(1, addr, false)
	if out.L1Hit || !out.LLCHit {
		t.Fatalf("expected LLC hit for core 1: %+v", out)
	}

	// Core 1 writes while line Shared in core 0: upgrade + invalidation.
	out = h.Access(1, addr, true)
	if !out.L1Hit || !out.Upgrade || out.InvalidationsSent != 1 {
		t.Fatalf("expected upgrade invalidating core 0: %+v", out)
	}

	// Core 0 re-reads: coherence miss (tombstone) + dirty forward.
	out = h.Access(0, addr, false)
	if !out.CoherenceMiss {
		t.Fatalf("expected coherence miss: %+v", out)
	}
	if !out.DirtyForward {
		t.Fatalf("expected dirty forward from core 1's Modified copy: %+v", out)
	}
	if h.Stats().CoherenceMisses[0] != 1 {
		t.Fatalf("coherence miss not counted: %+v", h.Stats().CoherenceMisses)
	}
}

func TestHierarchyWriteMissInvalidatesSharers(t *testing.T) {
	h := NewHierarchy(3, smallCfg(), Config{SizeBytes: 16384, Ways: 4, LineBytes: 64})
	addr := uint64(0x140)
	h.Access(0, addr, false)
	h.Access(1, addr, false)
	// Core 2 writes: both sharers invalidated.
	out := h.Access(2, addr, true)
	if out.InvalidationsSent != 2 {
		t.Fatalf("invalidations = %d, want 2", out.InvalidationsSent)
	}
	for c := 0; c < 2; c++ {
		if _, tombstone := lookupAddr(&h.l1[c], addr); !tombstone {
			t.Fatalf("sharer %d lacks a coherence tombstone", c)
		}
	}
}

func TestHierarchyInclusiveEviction(t *testing.T) {
	// Tiny LLC: 8 sets x 2 ways. Filling one LLC set evicts lines that must
	// also vanish from the L1s (inclusion); the L1 alone would keep them.
	l1 := Config{SizeBytes: 2048, Ways: 2, LineBytes: 64}  // 16 sets
	llc := Config{SizeBytes: 1024, Ways: 2, LineBytes: 64} // 8 sets
	h := NewHierarchy(1, l1, llc)
	// Three addresses in the same LLC set (stride = sets*line = 512).
	a0, a1, a2 := uint64(0), uint64(512), uint64(1024)
	h.Access(0, a0, false)
	h.Access(0, a1, false)
	out := h.Access(0, a2, false)
	if !out.LLCVictimValid {
		t.Fatalf("expected LLC eviction: %+v", out)
	}
	if presentAddr(&h.l1[0], out.LLCVictimAddr) {
		t.Fatal("inclusion violated: victim still in L1")
	}
}

func TestHierarchyDirtyVictimWriteback(t *testing.T) {
	l1 := Config{SizeBytes: 2048, Ways: 2, LineBytes: 64}
	llc := Config{SizeBytes: 1024, Ways: 2, LineBytes: 64}
	h := NewHierarchy(1, l1, llc)
	a0, a1, a2 := uint64(0), uint64(512), uint64(1024)
	h.Access(0, a0, true) // dirty in L1
	h.Access(0, a1, false)
	out := h.Access(0, a2, false)
	if !out.LLCVictimValid || !out.LLCVictimDirty {
		t.Fatalf("dirty victim must require writeback: %+v", out)
	}
	if h.Stats().LLCWritebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", h.Stats().LLCWritebacks)
	}
}

func TestHierarchyStatsConservation(t *testing.T) {
	h := NewHierarchy(4, smallCfg(), Config{SizeBytes: 32768, Ways: 8, LineBytes: 64})
	rng := trace.NewRNG(99)
	accesses := 20000
	for i := 0; i < accesses; i++ {
		core := rng.Intn(4)
		addr := rng.Uint64n(64 * 1024)
		h.Access(core, addr, rng.Bool(0.3))
	}
	st := h.Stats()
	var l1h, l1m, llch, llcm uint64
	for c := 0; c < 4; c++ {
		l1h += st.L1Hits[c]
		l1m += st.L1Misses[c]
		llch += st.LLCHits[c]
		llcm += st.LLCMisses[c]
	}
	if l1h+l1m != uint64(accesses) {
		t.Fatalf("L1 hits+misses = %d, want %d", l1h+l1m, accesses)
	}
	if llch+llcm != l1m {
		t.Fatalf("LLC accesses %d != L1 misses %d", llch+llcm, l1m)
	}
}

func TestHierarchyPropertyNoGhostHits(t *testing.T) {
	// Property: a single-core hierarchy can only hit lines it accessed.
	f := func(seed uint64) bool {
		h := NewHierarchy(1, smallCfg(), Config{SizeBytes: 16384, Ways: 4, LineBytes: 64})
		rng := trace.NewRNG(seed)
		seen := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			addr := rng.Uint64n(32768) &^ 63
			out := h.Access(0, addr, rng.Bool(0.2))
			if (out.L1Hit || out.LLCHit) && !seen[addr] {
				return false
			}
			seen[addr] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	for _, addr := range []uint64{0x12340, 1<<63 | 0x12340, ^uint64(63)} {
		addr &^= 63
		a := newL1(smallCfg())
		insertAddr(a, addr)
		set, tag := a.split(addr)
		way := a.probe(set, tag)
		if way == nil {
			t.Fatal("line missing")
		}
		if got := a.victimAddr(set, *way); got != addr {
			t.Fatalf("L1 victimAddr = %#x, want %#x", got, addr)
		}
		llc := newLLC(smallCfg())
		slot, _ := llc.insert(set, tag)
		if found := llc.find(set, tag); found != slot {
			t.Fatalf("LLC find = slot %d, want %d", found, slot)
		}
		if got := llc.victimAddr(set, *llc.way(set, slot)); got != addr {
			t.Fatalf("LLC victimAddr = %#x, want %#x", got, addr)
		}
	}
}

// TestResetMatchesNew holds Reset to the constructor: a hierarchy used at
// one shape and reset to another, with more or fewer cores and a larger or
// smaller cache, is deeply equal to a new one of that shape.
func TestResetMatchesNew(t *testing.T) {
	big := Config{SizeBytes: 65536, Ways: 8, LineBytes: 64}
	rng := trace.NewRNG(7)
	cores := 1
	h := NewHierarchy(cores, smallCfg(), smallCfg())
	for _, s := range []struct {
		cores   int
		l1, llc Config
	}{{4, smallCfg(), big}, {2, big, smallCfg()}, {3, smallCfg(), big}, {1, smallCfg(), smallCfg()}} {
		for range 5000 {
			h.Access(rng.Intn(cores), rng.Uint64n(1<<20), rng.Bool(0.3))
		}
		h.Reset(s.cores, s.l1, s.llc)
		if !reflect.DeepEqual(h, NewHierarchy(s.cores, s.l1, s.llc)) {
			t.Fatalf("reset to %d cores, L1 %+v, LLC %+v: differs from a new hierarchy", s.cores, s.l1, s.llc)
		}
		cores = s.cores
	}
}
