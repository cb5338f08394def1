package atd

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// refDirectory is the plain model of a Directory: one slice per sampled
// set, tags in LRU order (most recent first), no biased tags, no flat
// striding, and the address split by division rather than by the
// precomputed shifts and masks.
type refDirectory struct {
	cfg     Config
	sets    map[uint64][]uint64
	sampled uint64
}

func newRefDirectory(cfg Config) *refDirectory {
	return &refDirectory{cfg: cfg, sets: make(map[uint64][]uint64)}
}

// split returns addr's LLC set and tag.
func (r *refDirectory) split(addr uint64) (set, tag uint64) {
	line := addr / uint64(r.cfg.LineBytes)
	return line % uint64(r.cfg.Sets), line / uint64(r.cfg.Sets)
}

// access is the private-LLC lookup of addr on a monitored set.
func (r *refDirectory) access(addr uint64) (hit, sampled bool) {
	set, tag := r.split(addr)
	if set%(1<<r.cfg.SampleShift) != 0 {
		return false, false
	}
	r.sampled++
	row := r.sets[set]
	for i, t := range row {
		if t == tag {
			copy(row[1:i+1], row[:i])
			row[0] = tag
			return true, true
		}
	}
	row = append([]uint64{tag}, row...)
	if len(row) > r.cfg.Ways {
		row = row[:r.cfg.Ways]
	}
	r.sets[set] = row
	return false, true
}

// ReplayAgainstReference replays addrs through a Directory for cfg — by
// address (Access) and by the reference's (set, tag) pair (AccessSetTag),
// each on a directory of its own — and through the plain model, and fails
// on the first access whose outcome differs, on differing
// SampledAccesses, or when the sampled accesses are all hits or all
// misses. It is exported for the external test package, which
// replays recorded workload streams.
func ReplayAgainstReference(t *testing.T, cfg Config, addrs []uint64) {
	t.Helper()
	byAddr, bySetTag, ref := New(cfg), New(cfg), newRefDirectory(cfg)
	hits := uint64(0)
	for i, a := range addrs {
		wantHit, wantSampled := ref.access(a)
		if wantHit {
			hits++
		}
		if hit, sampled := byAddr.Access(a); hit != wantHit || sampled != wantSampled {
			t.Fatalf("access %d (%#x): Access (hit %v, sampled %v), reference (%v, %v)",
				i, a, hit, sampled, wantHit, wantSampled)
		}
		set, tag := ref.split(a)
		if hit, sampled := bySetTag.AccessSetTag(int(set), tag); hit != wantHit || sampled != wantSampled {
			t.Fatalf("access %d (%#x): AccessSetTag (hit %v, sampled %v), reference (%v, %v)",
				i, a, hit, sampled, wantHit, wantSampled)
		}
	}
	if byAddr.SampledAccesses() != ref.sampled || bySetTag.SampledAccesses() != ref.sampled {
		t.Fatalf("SampledAccesses: Access %d, AccessSetTag %d, reference %d",
			byAddr.SampledAccesses(), bySetTag.SampledAccesses(), ref.sampled)
	}
	if hits == 0 || hits == ref.sampled {
		t.Fatalf("%d hits in %d sampled accesses: the stream exercises one outcome only", hits, ref.sampled)
	}
}

// randomAddrs draws n addresses on cfg's geometry from a mix that exercises
// every path: a small hot pool (hits), lines crowding a few sets (LRU
// order, evictions, sampled and unsampled sets alike), the same crowd above
// 2^63, and the top of the address space, where tags are widest.
func randomAddrs(seed uint64, n int, cfg Config) []uint64 {
	rng := trace.NewRNG(seed)
	line, sets := uint64(cfg.LineBytes), uint64(cfg.Sets)
	crowd := func() uint64 {
		return (uint64(rng.Intn(40)) + sets*uint64(rng.Intn(3*cfg.Ways))) * line
	}
	out := make([]uint64, n)
	for i := range out {
		var addr uint64
		switch r := rng.Intn(8); {
		case r < 3:
			addr = uint64(rng.Intn(64)) * line
		case r < 6:
			addr = crowd()
		case r < 7:
			addr = 1<<63 | crowd()
		default:
			addr = ^uint64(0) - rng.Uint64n(3*uint64(cfg.Ways)*sets*line)
		}
		out[i] = addr + rng.Uint64n(line)
	}
	return out
}

// TestDirectoryMatchesReference is the fence around the directory's packed
// rows: seeded streams over three geometries (the default LLC's among
// them) at sample shifts 0 to 5, hit for hit against the plain model.
func TestDirectoryMatchesReference(t *testing.T) {
	geometries := []Config{
		{Sets: 64, Ways: 4, LineBytes: 64},
		{Sets: 2048, Ways: 16, LineBytes: 64},
		{Sets: 32, Ways: 1, LineBytes: 128},
	}
	seed := uint64(1)
	for _, g := range geometries {
		for shift := uint(0); shift <= 5; shift++ {
			seed++
			cfg := g
			cfg.SampleShift = shift
			addrs := randomAddrs(seed, 20_000, cfg)
			t.Run(fmt.Sprintf("%dx%d/shift%d", cfg.Sets, cfg.Ways, shift), func(t *testing.T) {
				ReplayAgainstReference(t, cfg, addrs)
			})
		}
	}
}
