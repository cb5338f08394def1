package workload

import (
	"slices"
	"sort"
)

// Benchmark couples a workload spec with its calibration targets from the
// paper's Figure 6: the published 16-thread speedup and the expected
// dominant speedup-stack components (largest first; empty means no
// significant scaling delimiter).
type Benchmark struct {
	Spec Spec
	// PaperSpeedup16 is the 16-thread speedup reported in Figure 6.
	PaperSpeedup16 float64
	// PaperComponents are the expected largest components, in order.
	PaperComponents []string
	// ExpectedDominant names the single stack component (stack.Comp* name)
	// that must dominate this workload's speedup stack at 4 and 16 threads.
	// Set only for the contention patterns (patterns.go), whose known-answer
	// suite asserts it; registry analogues use PaperComponents instead.
	ExpectedDominant string
	// ExpectedClass is the scaling classification ("linear", "saturated" or
	// "negative") the advisor must assign over a 1..16 sweep. Set only for
	// the contention patterns.
	ExpectedClass string
}

// registry holds the 28 benchmark analogues of the paper's Figure 6.
// Memory intensity calibration note: one modeled access stands for the
// L1-filtered, cache-relevant reference stream, so InstrPerAccess is on the
// order of hundreds to thousands of instructions (a miss every few thousand
// instructions for compute-bound codes, every few hundred for memory-bound
// ones), which keeps 8 DRAM banks at realistic utilizations.
var registry = []Benchmark{
	// ----- good scaling (speedup >= 10x at 16 threads) ---------------------
	{
		Spec: Spec{
			Name: "blackscholes", Suite: "parsec_medium", Kind: KindDataParallel,
			ArrayBytes: 3 << 19, SweepsPerPhase: 1, Phases: 4, InstrPerAccess: 3200,
			StoreFrac: 0.10, OverheadFrac: 0.004, Seed: 101,
		},
		PaperSpeedup16:  15.94,
		PaperComponents: nil,
	},
	{
		Spec: Spec{
			Name: "blackscholes", Suite: "parsec_small", Kind: KindDataParallel,
			ArrayBytes: 1 << 20, SweepsPerPhase: 1, Phases: 4, InstrPerAccess: 2800,
			StoreFrac: 0.10, OverheadFrac: 0.006, Seed: 102,
		},
		PaperSpeedup16:  15.71,
		PaperComponents: nil,
	},
	{
		Spec: Spec{
			Name: "radix", Suite: "splash2", Kind: KindDataParallel,
			ArrayBytes: 6 << 20, SweepsPerPhase: 1, Phases: 1, InstrPerAccess: 1650,
			StoreFrac: 0.45, EffectiveParallelism: 14.8,
			OverheadFrac: 0.01, Seed: 103,
		},
		PaperSpeedup16:  11.60,
		PaperComponents: []string{"memory", "yielding"},
	},
	{
		Spec: Spec{
			Name: "swaptions", Suite: "parsec_medium", Kind: KindDataParallel,
			ArrayBytes: 1 << 20, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 4000,
			StoreFrac: 0.08, EffectiveParallelism: 13.5,
			OverheadFrac: 0.02, Seed: 104,
		},
		PaperSpeedup16:  12.99,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "heartwall", Suite: "rodinia", Kind: KindDataParallel,
			ArrayBytes: 3 << 19, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 3200,
			StoreFrac: 0.12, EffectiveParallelism: 10.8,
			OverheadFrac: 0.015, Seed: 105,
		},
		PaperSpeedup16:  10.39,
		PaperComponents: []string{"yielding"},
	},
	// ----- moderate scaling (5x..10x) --------------------------------------
	{
		Spec: Spec{
			Name: "srad", Suite: "rodinia", Kind: KindDataParallel,
			ArrayBytes: 5 << 19, SweepsPerPhase: 2, Phases: 1, InstrPerAccess: 430,
			StoreFrac: 0.35, EffectiveParallelism: 12.5,
			OverheadFrac: 0.02, Seed: 106,
		},
		PaperSpeedup16:  5.20,
		PaperComponents: []string{"memory", "yielding", "cache"},
	},
	{
		Spec: Spec{
			Name: "cholesky", Suite: "splash2", Kind: KindTaskQueue,
			Items: 16384, ItemInstr: 3000, ItemAccesses: 7, DispatchInstr: 820,
			ArrayBytes: 3 << 20, SharedBytes: 5 << 19, SharedFrac: 0.30,
			SharedStoreFrac: 0.05, StoreFrac: 0.2,
			EffectiveParallelism: 12.0, OverheadFrac: 0.03,
			LockGrace: 1 << 40, Seed: 107,
		},
		PaperSpeedup16:  5.02,
		PaperComponents: []string{"spinning", "yielding", "memory"},
	},
	{
		Spec: Spec{
			Name: "lud", Suite: "rodinia", Kind: KindDataParallel,
			ArrayBytes: 3 << 19, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 2200,
			StoreFrac: 0.15, EffectiveParallelism: 5.7,
			OverheadFrac: 0.01, Seed: 108,
		},
		PaperSpeedup16:  5.77,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "water-nsquared", Suite: "splash2", Kind: KindDataParallel,
			ArrayBytes: 1 << 21, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 2000,
			StoreFrac: 0.15, EffectiveParallelism: 7.5,
			CSPerThreadPerPhase: 200, CSInstr: 2800, NumLocks: 1,
			LockGrace: 1 << 40, OverheadFrac: 0.015, Seed: 109,
		},
		PaperSpeedup16:  5.77,
		PaperComponents: []string{"yielding", "spinning"},
	},
	{
		Spec: Spec{
			Name: "fluidanimate", Suite: "parsec_medium", Kind: KindDataParallel,
			ArrayBytes: 1 << 21, SweepsPerPhase: 1, Phases: 4, InstrPerAccess: 1800,
			StoreFrac: 0.2, EffectiveParallelism: 5.9,
			CSPerThreadPerPhase: 20, CSInstr: 120, NumLocks: 64,
			OverheadFrac: 0.18, Seed: 110,
		},
		PaperSpeedup16:  5.71,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "lu.ncont", Suite: "splash2", Kind: KindDataParallel,
			ArrayBytes: 8 << 20, SweepsPerPhase: 2, Phases: 1, InstrPerAccess: 700,
			StoreFrac: 0.2, SharedBytes: 1 << 20, SharedFrac: 0.15, RandomShared: true,
			EffectiveParallelism: 9.3, OverheadFrac: 0.04, Seed: 111,
		},
		PaperSpeedup16:  5.53,
		PaperComponents: []string{"yielding", "cache", "memory"},
	},
	{
		Spec: Spec{
			Name: "lu.cont", Suite: "splash2", Kind: KindDataParallel,
			ArrayBytes: 6 << 20, SweepsPerPhase: 2, Phases: 1, InstrPerAccess: 900,
			StoreFrac: 0.2, SharedBytes: 1 << 20, SharedFrac: 0.20, RandomShared: true,
			EffectiveParallelism: 8.8, OverheadFrac: 0.02, Seed: 112,
		},
		PaperSpeedup16:  5.79,
		PaperComponents: []string{"yielding", "cache"},
	},
	{
		Spec: Spec{
			Name: "facesim", Suite: "parsec_medium", Kind: KindDataParallel,
			ArrayBytes: 10 << 20, SweepsPerPhase: 2, Phases: 1, InstrPerAccess: 760,
			StoreFrac: 0.25, EffectiveParallelism: 10.2,
			OverheadFrac: 0.02, Seed: 113,
		},
		PaperSpeedup16:  5.50,
		PaperComponents: []string{"yielding", "cache", "memory"},
	},
	{
		Spec: Spec{
			Name: "facesim", Suite: "parsec_small", Kind: KindDataParallel,
			ArrayBytes: 9 << 20, SweepsPerPhase: 2, Phases: 1, InstrPerAccess: 760,
			StoreFrac: 0.25, EffectiveParallelism: 10.1,
			OverheadFrac: 0.02, Seed: 114,
		},
		PaperSpeedup16:  5.46,
		PaperComponents: []string{"yielding", "cache", "memory"},
	},
	{
		Spec: Spec{
			Name: "fft", Suite: "splash2", Kind: KindDataParallel,
			ArrayBytes: 6 << 20, SweepsPerPhase: 1, Phases: 1, InstrPerAccess: 1300,
			StoreFrac: 0.3, EffectiveParallelism: 14.2,
			OverheadFrac: 0.015, Seed: 115,
		},
		PaperSpeedup16:  9.43,
		PaperComponents: []string{"yielding", "memory"},
	},
	{
		Spec: Spec{
			Name: "canneal", Suite: "parsec_medium", Kind: KindDataParallel,
			ArrayBytes: 6 << 20, SweepsPerPhase: 1, Phases: 2, InstrPerAccess: 900,
			StoreFrac: 0.2, RandomPrivate: true,
			SharedBytes: 1 << 19, SharedFrac: 0.2, RandomShared: true,
			SharedStoreFrac: 0.04, EffectiveParallelism: 8.4,
			OverheadFrac: 0.01, Seed: 116,
		},
		PaperSpeedup16:  7.61,
		PaperComponents: []string{"yielding", "memory"},
	},
	{
		Spec: Spec{
			Name: "canneal", Suite: "parsec_small", Kind: KindDataParallel,
			ArrayBytes: 4 << 20, SweepsPerPhase: 1, Phases: 2, InstrPerAccess: 900,
			StoreFrac: 0.2, RandomPrivate: true,
			SharedBytes: 1 << 19, SharedFrac: 0.15, RandomShared: true,
			SharedStoreFrac: 0.04, EffectiveParallelism: 7.2,
			OverheadFrac: 0.012, Seed: 117,
		},
		PaperSpeedup16:  6.93,
		PaperComponents: []string{"yielding", "memory"},
	},
	{
		Spec: Spec{
			Name: "bfs", Suite: "rodinia", Kind: KindDataParallel,
			ArrayBytes: 4 << 20, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 800,
			StoreFrac: 0.25, RandomPrivate: true,
			SharedBytes: 1 << 19, SharedFrac: 0.2, RandomShared: true,
			SharedStoreFrac: 0.03, EffectiveParallelism: 5.8,
			OverheadFrac: 0.02, Seed: 118,
		},
		PaperSpeedup16:  5.65,
		PaperComponents: []string{"yielding", "memory"},
	},
	// ----- poor scaling (< 5x) ---------------------------------------------
	{
		Spec: Spec{
			Name: "ferret", Suite: "parsec_medium", Kind: KindPipeline,
			Items: 5000, ItemInstr: 10000, ItemAccesses: 8, QueueCap: 32,
			ArrayBytes: 4 << 20, StoreFrac: 0.2,
			SharedBytes: 1 << 20, SharedFrac: 0.1,
			Stages: []StageSpec{
				{Weight: 0.20, Serial: true},
				{Weight: 0.39},
				{Weight: 0.31},
				{Weight: 0.10, Serial: true},
			},
			OverheadFrac: 0.02, Seed: 119,
		},
		PaperSpeedup16:  4.77,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "water-spatial", Suite: "splash2", Kind: KindDataParallel,
			ArrayBytes: 1 << 21, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 1400,
			StoreFrac: 0.2, EffectiveParallelism: 4.65,
			OverheadFrac: 0.02, Seed: 120,
		},
		PaperSpeedup16:  4.57,
		PaperComponents: []string{"yielding", "memory"},
	},
	{
		Spec: Spec{
			Name: "dedup", Suite: "parsec_medium", Kind: KindPipeline,
			Items: 5000, ItemInstr: 10000, ItemAccesses: 8, QueueCap: 32,
			ArrayBytes: 4 << 20, StoreFrac: 0.25,
			SharedBytes: 1 << 20, SharedFrac: 0.08,
			Stages: []StageSpec{
				{Weight: 0.22, Serial: true},
				{Weight: 0.26},
				{Weight: 0.24},
				{Weight: 0.18},
				{Weight: 0.10, Serial: true},
			},
			OverheadFrac: 0.03, Seed: 121,
		},
		PaperSpeedup16:  4.12,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "freqmine", Suite: "parsec_small", Kind: KindTaskQueue,
			Items: 8192, ItemInstr: 3600, ItemAccesses: 4, DispatchInstr: 300,
			ArrayBytes: 5 << 20, SharedBytes: 1 << 20, SharedFrac: 0.15,
			StoreFrac: 0.2, EffectiveParallelism: 5.1, OverheadFrac: 0.03, Seed: 122,
		},
		PaperSpeedup16:  4.09,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "freqmine", Suite: "parsec_medium", Kind: KindTaskQueue,
			Items: 9000, ItemInstr: 3600, ItemAccesses: 4, DispatchInstr: 300,
			ArrayBytes: 6 << 20, SharedBytes: 1 << 20, SharedFrac: 0.15,
			StoreFrac: 0.2, EffectiveParallelism: 4.85, OverheadFrac: 0.03, Seed: 123,
		},
		PaperSpeedup16:  3.89,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "swaptions", Suite: "parsec_small", Kind: KindDataParallel,
			ArrayBytes: 1 << 19, SweepsPerPhase: 1, Phases: 3, InstrPerAccess: 3000,
			StoreFrac: 0.08, EffectiveParallelism: 4.35,
			OverheadFrac: 0.26, Seed: 124,
		},
		PaperSpeedup16:  3.81,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "dedup", Suite: "parsec_small", Kind: KindPipeline,
			Items: 4600, ItemInstr: 10000, ItemAccesses: 8, QueueCap: 32,
			ArrayBytes: 3 << 20, StoreFrac: 0.25,
			SharedBytes: 1 << 20, SharedFrac: 0.08,
			Stages: []StageSpec{
				{Weight: 0.24, Serial: true},
				{Weight: 0.26},
				{Weight: 0.23},
				{Weight: 0.17},
				{Weight: 0.10, Serial: true},
			},
			OverheadFrac: 0.035, Seed: 125,
		},
		PaperSpeedup16:  3.56,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "bodytrack", Suite: "parsec_small", Kind: KindDataParallel,
			ArrayBytes: 1 << 21, SweepsPerPhase: 1, Phases: 6, InstrPerAccess: 800,
			StoreFrac: 0.2, EffectiveParallelism: 2.9,
			OverheadFrac: 0.03, Seed: 126,
		},
		PaperSpeedup16:  3.02,
		PaperComponents: []string{"yielding", "memory"},
	},
	{
		Spec: Spec{
			Name: "ferret", Suite: "parsec_small", Kind: KindPipeline,
			Items: 4600, ItemInstr: 10000, ItemAccesses: 8, QueueCap: 32,
			ArrayBytes: 3 << 20, StoreFrac: 0.2,
			SharedBytes: 1 << 20, SharedFrac: 0.1,
			Stages: []StageSpec{
				{Weight: 0.30, Serial: true},
				{Weight: 0.32},
				{Weight: 0.28},
				{Weight: 0.10, Serial: true},
			},
			OverheadFrac: 0.025, Seed: 127,
		},
		PaperSpeedup16:  2.94,
		PaperComponents: []string{"yielding"},
	},
	{
		Spec: Spec{
			Name: "needle", Suite: "rodinia", Kind: KindDataParallel,
			ArrayBytes: 8 << 20, SweepsPerPhase: 2, Phases: 1, InstrPerAccess: 600,
			StoreFrac: 0.25, SharedBytes: 1 << 20, SharedFrac: 0.15, RandomShared: true,
			EffectiveParallelism: 6.7, OverheadFrac: 0.03, Seed: 128,
		},
		PaperSpeedup16:  4.14,
		PaperComponents: []string{"yielding", "memory", "cache"},
	},
}

// All returns every benchmark analogue, in the paper's Figure 6 grouping
// order (good, moderate, poor scaling).
func All() []Benchmark {
	out := make([]Benchmark, len(registry))
	copy(out, registry)
	return out
}

// entry is one registered workload as the name index holds it, with the
// two things every request used to re-derive from it computed once: its
// full name and its fingerprint. The fingerprint lives here and nowhere
// else — never on the copyable Benchmark or Spec — so it is reachable only
// by name (Identity), and an edited copy of a registered spec always hashes
// as what it has become.
type entry struct {
	bench    Benchmark
	fullName string
	fp       Fingerprint
}

// nameIndex is the immutable name index over the Figure 6 analogues
// followed by the contention patterns: byName maps every full name and
// every plain name to its entry, the first entry in that order winning a
// name more than one claims ("blackscholes" is parsec_medium).
type nameIndex struct {
	entries []entry
	byName  map[string]*entry
	names   []string // full names, sorted
}

// index is built once, before main, and only read afterwards.
var index = buildIndex()

func buildIndex() nameIndex {
	var ix nameIndex
	for _, b := range slices.Concat(registry, patterns) {
		ix.entries = append(ix.entries, entry{bench: b, fullName: b.FullName(), fp: b.Spec.Fingerprint()})
	}
	ix.byName = make(map[string]*entry, 2*len(ix.entries))
	for i := range ix.entries {
		e := &ix.entries[i]
		for _, name := range []string{e.fullName, e.bench.Spec.Name} {
			if _, taken := ix.byName[name]; !taken {
				ix.byName[name] = e
			}
		}
		ix.names = append(ix.names, e.fullName)
	}
	sort.Strings(ix.names)
	return ix
}

// Names lists the full identifiers (name_suite) of every registered
// workload — the Figure 6 analogues plus the contention patterns — sorted.
func Names() []string {
	return slices.Clone(index.names)
}

// FullName returns "name_suite", disambiguating the input classes. Custom
// specs without a suite are identified by name alone.
func (b Benchmark) FullName() string {
	if b.Spec.Suite == "" {
		return b.Spec.Name
	}
	return b.Spec.Name + "_" + b.Spec.Suite
}

// ByName finds a benchmark by FullName or plain name (first match), looking
// through the Figure 6 analogues and then the contention patterns.
func ByName(name string) (Benchmark, bool) {
	if e := index.byName[name]; e != nil {
		return e.bench, true
	}
	return Benchmark{}, false
}

// Identity resolves a registered name (FullName or plain, exactly as ByName
// does) to the workload's full name and fingerprint, both computed once when
// the index was built: the per-request path from a name to a memo, cache or
// ring key hashes nothing.
func Identity(name string) (fullName string, fp Fingerprint, ok bool) {
	if e := index.byName[name]; e != nil {
		return e.fullName, e.fp, true
	}
	return "", Fingerprint{}, false
}
