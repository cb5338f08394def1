package atd

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func fullCfg() Config {
	return Config{Sets: 64, Ways: 4, LineBytes: 64, SampleShift: 0, TagBits: 24}
}

func sampledCfg(shift uint) Config {
	c := fullCfg()
	c.SampleShift = shift
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := fullCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := fullCfg()
	bad.Sets = 63
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	bad = fullCfg()
	bad.SampleShift = 7 // 64 >> 7 == 0
	if err := bad.Validate(); err == nil {
		t.Fatal("sample shift with no sampled sets accepted")
	}
}

func TestSamplingSelectsSubset(t *testing.T) {
	d := New(sampledCfg(2)) // 1 in 4 sets
	sampledSets := 0
	for set := 0; set < 64; set++ {
		if d.SampledSet(set) {
			sampledSets++
			if set%4 != 0 {
				t.Fatalf("set %d sampled, want multiples of 4 only", set)
			}
		}
	}
	if sampledSets != 16 {
		t.Fatalf("sampled sets = %d, want 16", sampledSets)
	}
	if d.Config().SampledSets() != 16 {
		t.Fatalf("SampledSets() = %d", d.Config().SampledSets())
	}
}

func TestAccessHitMissLRU(t *testing.T) {
	d := New(fullCfg())
	addr := uint64(0)
	if hit, sampled := d.Access(addr); hit || !sampled {
		t.Fatalf("cold access: hit=%v sampled=%v", hit, sampled)
	}
	if hit, _ := d.Access(addr); !hit {
		t.Fatal("second access must hit")
	}
	// Fill set 0 (stride = 64 sets * 64 B) beyond capacity: LRU evicts addr0.
	stride := uint64(64 * 64)
	for i := 1; i <= 4; i++ {
		d.Access(uint64(i) * stride)
	}
	if hit, _ := d.Access(addr); hit {
		t.Fatal("LRU victim still present after overfill")
	}
}

func TestUnsampledSetsIgnored(t *testing.T) {
	d := New(sampledCfg(3)) // sets 0,8,16,...
	addr := uint64(1 * 64)  // set 1: unsampled
	if _, sampled := d.Access(addr); sampled {
		t.Fatal("set 1 should not be sampled at shift 3")
	}
	if d.SampledAccesses() != 0 {
		t.Fatal("unsampled access counted")
	}
	d.Access(0) // set 0: sampled
	if d.SampledAccesses() != 1 {
		t.Fatal("sampled access not counted")
	}
}

func TestSampledMirrorsFullOnSampledSets(t *testing.T) {
	// Property: on sampled sets, the sampled ATD behaves exactly like the
	// full-coverage one (set sampling does not distort per-set behavior).
	f := func(seed uint64) bool {
		full := New(fullCfg())
		sampled := New(sampledCfg(2))
		rng := trace.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64n(1<<20) &^ 63
			fh, _ := full.Access(addr)
			sh, ss := sampled.Access(addr)
			if ss && sh != fh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryModelsPrivateCache(t *testing.T) {
	// The ATD must hit iff a private LLC of the same geometry would hit:
	// compare against a simple per-set LRU oracle.
	cfg := fullCfg()
	d := New(cfg)
	rng := trace.NewRNG(77)
	ref := make(map[int][]uint64)
	for i := 0; i < 20000; i++ {
		addr := rng.Uint64n(1<<22) &^ 63
		si := int(addr / 64 % uint64(cfg.Sets))
		tag := addr / 64 / uint64(cfg.Sets)
		s := ref[si]
		refHit := false
		for j, tg := range s {
			if tg == tag {
				copy(s[1:j+1], s[:j])
				s[0] = tag
				refHit = true
				break
			}
		}
		if !refHit {
			s = append([]uint64{tag}, s...)
			if len(s) > cfg.Ways {
				s = s[:cfg.Ways]
			}
		}
		ref[si] = s
		hit, _ := d.Access(addr)
		if hit != refHit {
			t.Fatalf("access %d: ATD hit=%v oracle=%v", i, hit, refHit)
		}
	}
}
