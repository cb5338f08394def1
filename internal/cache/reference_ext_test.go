package cache_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// randomStream draws n accesses over cores from a mix built to exercise
// every protocol path on the given LLC geometry: a small hot pool every core
// shares (coherence misses, upgrades, dirty forwards), lines crowding a few
// LLC sets (LRU order, L1 and LLC evictions, inclusion purges), the same
// crowd above 2^63, and the top of the address space, where tags are
// widest.
func randomStream(seed uint64, cores, n int, writeRatio float64, llc cache.Config) []cache.RefAccess {
	rng := trace.NewRNG(seed)
	line, sets := uint64(llc.LineBytes), uint64(llc.Sets())
	crowd := func() uint64 {
		return (uint64(rng.Intn(4)) + sets*uint64(rng.Intn(3*llc.Ways))) * line
	}
	out := make([]cache.RefAccess, n)
	for i := range out {
		var addr uint64
		switch r := rng.Intn(8); {
		case r < 3:
			addr = uint64(rng.Intn(48)) * line
		case r < 6:
			addr = crowd()
		case r < 7:
			addr = 1<<63 | crowd()
		default:
			addr = ^uint64(0) - rng.Uint64n(3*uint64(llc.Ways)*sets*line)
		}
		out[i] = cache.RefAccess{
			Core:  rng.Intn(cores),
			Addr:  addr + rng.Uint64n(line),
			Write: rng.Float64() < writeRatio,
		}
	}
	return out
}

// recordedStream interleaves the loads and stores of a recorded op stream
// round-robin, thread i on core i, up to max accesses.
func recordedStream(f *trace.File, max int) []cache.RefAccess {
	var out []cache.RefAccess
	next := make([]int, len(f.Threads))
	for progress := true; progress && len(out) < max; {
		progress = false
		for c, ops := range f.Threads {
			for next[c] < len(ops) {
				op := ops[next[c]]
				next[c]++
				if op.Kind == trace.KindLoad || op.Kind == trace.KindStore {
					out = append(out, cache.RefAccess{Core: c, Addr: op.Addr, Write: op.Kind == trace.KindStore})
					progress = true
					break
				}
			}
		}
	}
	return out
}

// collisionStream draws n accesses over cores from addrs, a set of lines
// whose tags share one fingerprint (cache.FingerprintCollisions).
func collisionStream(seed uint64, cores, n int, writeRatio float64, addrs []uint64) []cache.RefAccess {
	rng := trace.NewRNG(seed)
	out := make([]cache.RefAccess, n)
	for i := range out {
		out[i] = cache.RefAccess{
			Core:  rng.Intn(cores),
			Addr:  addrs[rng.Intn(len(addrs))],
			Write: rng.Float64() < writeRatio,
		}
	}
	return out
}

// TestHierarchyMatchesReference is the fence around the packed tag arrays:
// Hierarchy.AccessTo must agree, Outcome by Outcome and in its final
// statistics, with the plain reference model in reference_test.go, and keep
// the stable-slot invariant throughout — on seeded random streams over 1 to
// 16 cores, four geometries (one with a 64-way LLC) and three write ratios;
// on streams whose tags all share one fingerprint byte, above 2^63; and on
// the recorded op streams of one analogue per workload family. A last row
// holds the by-value Access, which only the benchmark calls, to the Outcome
// AccessTo fills.
func TestHierarchyMatchesReference(t *testing.T) {
	def := sim.Default()
	tinyLLC := cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64}
	geometries := []struct {
		name    string
		l1, llc cache.Config
	}{
		{"tiny", cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 64}, tinyLLC},
		{"default", def.L1, def.LLC},
		{"l1_1way", cache.Config{SizeBytes: 512, Ways: 1, LineBytes: 64}, tinyLLC},
		{"llc_64way", cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64}, cache.Config{SizeBytes: 64 << 10, Ways: 64, LineBytes: 64}},
	}
	seed := uint64(1)
	for _, g := range geometries {
		for _, cores := range []int{1, 2, 5, 16} {
			for _, wr := range []float64{0, 0.3, 1} {
				seed++
				stream := randomStream(seed, cores, 20_000, wr, g.llc)
				t.Run(fmt.Sprintf("%s/%dc/w%.1f", g.name, cores, wr), func(t *testing.T) {
					cache.ReplayAgainstReference(t, cores, g.l1, g.llc, stream)
				})
			}
		}
	}

	for _, g := range []int{1, 3} { // default, llc_64way
		geo := geometries[g]
		addrs := cache.FingerprintCollisions(geo.llc, 3*geo.llc.Ways)
		for _, cores := range []int{1, 5} {
			seed++
			stream := collisionStream(seed, cores, 20_000, 0.3, addrs)
			t.Run(fmt.Sprintf("fingerprint_collisions/%s/%dc", geo.name, cores), func(t *testing.T) {
				cache.ReplayAgainstReference(t, cores, geo.l1, geo.llc, stream)
			})
		}
	}

	const threads = 4
	for _, name := range []string{"fft_splash2", "cholesky_splash2", "dedup_parsec_small"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no analogue %s", name)
		}
		f, _, err := workload.Record(def, b.Spec, threads)
		if err != nil {
			t.Fatal(err)
		}
		stream := recordedStream(f, 300_000)
		for _, g := range geometries[:2] {
			t.Run(fmt.Sprintf("%s/%s", name, g.name), func(t *testing.T) {
				cache.ReplayAgainstReference(t, threads, g.l1, g.llc, stream)
			})
		}
	}

	tiny := geometries[0]
	stream := randomStream(seed+1, 5, 20_000, 0.3, tiny.llc)
	t.Run("by_value_access", func(t *testing.T) {
		byValue, inPlace := cache.NewHierarchy(5, tiny.l1, tiny.llc), cache.NewHierarchy(5, tiny.l1, tiny.llc)
		var want cache.Outcome
		for i, a := range stream {
			inPlace.AccessTo(&want, a.Core, a.Addr, a.Write)
			if got := byValue.Access(a.Core, a.Addr, a.Write); got != want {
				t.Fatalf("access %d: Access returned %+v, AccessTo filled %+v", i, got, want)
			}
		}
	})
}
