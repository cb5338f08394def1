package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// countingHook tallies actual simulations per (kind, bench, threads).
type countingHook struct {
	mu   sync.Mutex
	runs map[string]int
}

func newCountingHook() *countingHook {
	return &countingHook{runs: make(map[string]int)}
}

func (h *countingHook) hook(kind, bench string, threads, cores int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.runs[kind+":"+bench] += 1
}

func (h *countingHook) count(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.runs[key]
}

// TestCellMemoLimitEviction drives an engine with a one-cell memo through
// an A, B, A access pattern: B must evict A, so the second A re-simulates,
// and both A outcomes must be identical (determinism survives eviction).
func TestCellMemoLimitEviction(t *testing.T) {
	h := newCountingHook()
	e := NewEngine(sim.Default(), WithWorkers(2), WithRunHook(h.hook),
		WithCellMemoLimit(1))
	ctx := context.Background()

	cellA := Cell{Bench: "blackscholes_parsec_small", Threads: 2}
	cellB := Cell{Bench: "swaptions_parsec_small", Threads: 2}

	outA1, err := e.Sweep(ctx, []Cell{cellA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sweep(ctx, []Cell{cellB}); err != nil {
		t.Fatal(err)
	}
	outA2, err := e.Sweep(ctx, []Cell{cellA})
	if err != nil {
		t.Fatal(err)
	}

	if got := h.count("cell:blackscholes_parsec_small"); got != 2 {
		t.Errorf("cell A simulated %d times, want 2 (evicted between sweeps)", got)
	}
	st := e.Stats()
	if st.CellEvictions < 2 {
		t.Errorf("CellEvictions = %d, want >= 2", st.CellEvictions)
	}
	// The sequential reference shares the bound: B's evicted A's, so A's
	// second cell run pays for its reference again.
	if got := h.count("seq:blackscholes_parsec_small"); got != 2 {
		t.Errorf("seq reference simulated %d times, want 2", got)
	}
	if !reflect.DeepEqual(outA1[0].Stack, outA2[0].Stack) {
		t.Errorf("re-simulated outcome differs:\n%+v\n%+v", outA1[0].Stack, outA2[0].Stack)
	}
}

// TestSeqMemoLimit: the sequential-reference memo keeps the bound the cell
// memo has. A client mints a new reference with every inline spec's seed,
// so an unbounded memo would retain one configuration per distinct spec for
// the life of the process.
func TestSeqMemoLimit(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(2), WithCellMemoLimit(2))
	ctx := context.Background()
	var first []Outcome
	for seed := uint64(1); seed <= 5; seed++ {
		spec := testSpec("seeded")
		spec.Seed = seed
		outs, err := e.Do(ctx, []Request{{Cell: Cell{Spec: &spec, Threads: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = outs
		}
	}
	if got := e.seq.Occupancy().Entries; got > 2 {
		t.Errorf("sequential-reference memo holds %d entries under a limit of 2", got)
	}
	spec := testSpec("seeded")
	spec.Seed = 1
	again, err := e.Do(ctx, []Request{{Cell: Cell{Spec: &spec, Threads: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first[0].Stack, again[0].Stack) {
		t.Errorf("re-simulated reference changed the stack:\n%+v\n%+v", first[0].Stack, again[0].Stack)
	}
}

// TestImpossibleRunShapeSimulatesNothing: a cell whose run shape the
// simulator cannot build fails in Cell.Resolve, before the engine spends a
// sequential reference on it.
func TestImpossibleRunShapeSimulatesNothing(t *testing.T) {
	h := newCountingHook()
	e := NewEngine(sim.Default(), WithWorkers(2), WithRunHook(h.hook))
	for _, c := range []Cell{
		{Bench: "cholesky", Threads: 65},
		{Bench: "cholesky", Threads: 4, Cores: -1},
		{Bench: "cholesky", Threads: 4, Cores: 65},
		{Bench: "cholesky", Threads: 257, Cores: 64},
	} {
		if _, err := e.Sweep(context.Background(), []Cell{c}); err == nil {
			t.Errorf("%d threads on %d cores: accepted", c.Threads, c.Cores)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.runs) != 0 {
		t.Errorf("impossible run shapes simulated: %v", h.runs)
	}
}

// testSpec returns a small custom data-parallel spec under the given name.
// The behavioural fields are fixed, so any two calls produce
// fingerprint-identical workloads regardless of naming.
func testSpec(name string) workload.Spec {
	return workload.Spec{
		Name: name, Kind: workload.KindDataParallel,
		ArrayBytes: 1 << 19, SweepsPerPhase: 1, Phases: 1, InstrPerAccess: 2500,
		StoreFrac: 0.1, Seed: 77,
	}
}

// TestInlineSpecsDedupAcrossNames is the keying acceptance test: two cells
// carrying behaviourally identical specs under different names are ONE
// simulation (identity is the canonical fingerprint, not the name), and
// each outcome still comes back labeled with its own cell's name.
func TestInlineSpecsDedupAcrossNames(t *testing.T) {
	h := newCountingHook()
	e := NewEngine(sim.Default(), WithWorkers(2), WithRunHook(h.hook))
	alpha, beta := testSpec("alpha"), testSpec("beta")
	outs, err := e.Sweep(context.Background(), []Cell{
		{Spec: &alpha, Threads: 2},
		{Spec: &beta, Threads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CellRuns != 1 || st.SeqRuns != 1 {
		t.Errorf("identical specs under two names ran %d cell + %d seq simulations, want 1 + 1",
			st.CellRuns, st.SeqRuns)
	}
	if got := outs[0].Bench.FullName(); got != "alpha" {
		t.Errorf("first outcome labeled %q, want alpha", got)
	}
	if got := outs[1].Bench.FullName(); got != "beta" {
		t.Errorf("second outcome labeled %q, want beta (labels must survive dedup)", got)
	}
	if !reflect.DeepEqual(outs[0].Stack, outs[1].Stack) {
		t.Error("fingerprint-equal specs produced different stacks")
	}
}

// TestInlineSpecSharesMemoWithRegistry checks the other collapse the
// fingerprint keying buys: an inline spec identical to a registered
// analogue hits the registry cell's memo entry (and vice versa).
func TestInlineSpecSharesMemoWithRegistry(t *testing.T) {
	h := newCountingHook()
	e := NewEngine(sim.Default(), WithWorkers(2), WithRunHook(h.hook))
	ctx := context.Background()
	if _, err := e.Sweep(ctx, []Cell{{Bench: "blackscholes_parsec_small", Threads: 2}}); err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("blackscholes_parsec_small")
	spec := b.Spec
	spec.Name, spec.Suite = "my-blackscholes", "" // renaming must not change identity
	outs, err := e.Sweep(ctx, []Cell{{Spec: &spec, Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CellRuns != 1 {
		t.Errorf("inline twin of a registry cell re-simulated: %+v", st)
	}
	if got := outs[0].Bench.FullName(); got != "my-blackscholes" {
		t.Errorf("outcome labeled %q, want my-blackscholes", got)
	}
}

// TestSpecTwoConfigsSimulateTwice pins the other half of the key: the same
// spec under two machine configurations is two distinct simulations, and
// two sequential references when the configurations differ in a field the
// reference reads. A change only to a field it does not read — the ATD
// sample shift, the spin threshold, the quantum — re-simulates the cell
// but shares Ts (sim.Config.Sequential).
func TestSpecTwoConfigsSimulateTwice(t *testing.T) {
	h := newCountingHook()
	e := NewEngine(sim.Default(), WithWorkers(2), WithRunHook(h.hook))
	ctx := context.Background()
	spec := testSpec("cfgsweep")
	cells := []Cell{{Spec: &spec, Threads: 2}}
	base, err := e.Sweep(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default().WithLLCSize(1 << 20)
	if _, err := e.Do(ctx, onMachine(cfg, cells)); err != nil {
		t.Fatal(err)
	}
	if got := h.count("cell:cfgsweep"); got != 2 {
		t.Errorf("same spec under two configs simulated %d times, want 2", got)
	}
	if got := h.count("seq:cfgsweep"); got != 2 {
		t.Errorf("sequential reference under two LLC sizes simulated %d times, want 2", got)
	}
	// Re-requesting under either config is now a pure memo hit.
	before := e.Stats()
	if _, err := e.Do(ctx, onMachine(cfg, cells)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CellRuns != before.CellRuns {
		t.Errorf("repeat under explicit config re-simulated: %+v", st)
	}

	unread := []func(*sim.Config){
		func(c *sim.Config) { c.ATDSampleShift = 3 },
		func(c *sim.Config) { c.Spin.Threshold = 64 },
		func(c *sim.Config) { c.Quantum = 200 },
	}
	for i, set := range unread {
		cfg := sim.Default()
		set(&cfg)
		outs, err := e.Do(ctx, onMachine(cfg, cells))
		if err != nil {
			t.Fatal(err)
		}
		if got := h.count("cell:cfgsweep"); got != 3+i {
			t.Errorf("change %d: cell simulated %d times in all, want %d", i, got, 3+i)
		}
		if got := h.count("seq:cfgsweep"); got != 2 {
			t.Errorf("change %d: sequential reference simulated %d times in all, want 2", i, got)
		}
		if outs[0].Ts != base[0].Ts {
			t.Errorf("change %d: Ts %d, base machine %d", i, outs[0].Ts, base[0].Ts)
		}
	}
}

// TestInlineSpecInvalid fails fast with the validation error, before any
// simulation is spent.
func TestInlineSpecInvalid(t *testing.T) {
	e := NewEngine(sim.Default())
	bad := workload.Spec{Name: "broken", Kind: workload.KindDataParallel}
	_, err := e.Sweep(context.Background(), []Cell{{Spec: &bad, Threads: 2}})
	if err == nil {
		t.Fatal("invalid inline spec accepted")
	}
	if st := e.Stats(); st.CellRuns != 0 || st.SeqRuns != 0 {
		t.Errorf("simulations ran despite invalid spec: %+v", st)
	}
}

// TestCellMemoUnboundedByDefault checks the default engine keeps every
// outcome: repeating a sweep costs zero simulations.
func TestCellMemoUnboundedByDefault(t *testing.T) {
	h := newCountingHook()
	e := NewEngine(sim.Default(), WithWorkers(2), WithRunHook(h.hook))
	ctx := context.Background()
	cells := []Cell{
		{Bench: "blackscholes_parsec_small", Threads: 2},
		{Bench: "swaptions_parsec_small", Threads: 2},
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Sweep(ctx, cells); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.count("cell:blackscholes_parsec_small"); got != 1 {
		t.Errorf("cell simulated %d times, want 1", got)
	}
	if st := e.Stats(); st.CellEvictions != 0 {
		t.Errorf("CellEvictions = %d, want 0", st.CellEvictions)
	}
}

// TestStatsOccupancy pins the cache-pressure surface: entries and the
// configured limit are visible next to the existing churn counters.
func TestStatsOccupancy(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(2), WithCellMemoLimit(7))
	if _, err := e.Sweep(context.Background(), []Cell{{Bench: "blackscholes_parsec_small", Threads: 2}}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CellMemoEntries != 1 || st.CellMemoLimit != 7 {
		t.Fatalf("occupancy entries=%d limit=%d, want 1 and 7", st.CellMemoEntries, st.CellMemoLimit)
	}
}

// TestEditedRegistryCopyIsADistinctCell pins where a precomputed fingerprint
// may come from: the name index, by name, and nowhere else. A copy of a
// registered spec that is then edited runs as an inline spec, hashes as what
// it has become and gets its own memo entry — it must never ride the
// registered name's fingerprint into the registered cell's result.
func TestEditedRegistryCopyIsADistinctCell(t *testing.T) {
	const name = "blackscholes_parsec_small"
	e := NewEngine(sim.Default(), WithWorkers(2))
	ctx := context.Background()
	named, err := e.Sweep(ctx, []Cell{{Bench: name, Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName(name)
	b.Spec.Seed++
	_, registered, _ := workload.Identity(name)
	if b.Spec.Fingerprint() == registered {
		t.Fatal("the edited copy hashes to the registered fingerprint")
	}
	edited, err := e.Sweep(ctx, []Cell{{Spec: &b.Spec, Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CellRuns != 2 || st.SeqRuns != 2 || st.CellMemoEntries != 2 {
		t.Errorf("edited copy shared the registered cell's memo entry: %+v", st)
	}
	if edited[0].Bench.Spec.Seed != b.Spec.Seed || named[0].Bench.Spec.Seed == b.Spec.Seed {
		t.Errorf("outcomes carry seeds %d (named) and %d (edited), want the registry's and %d",
			named[0].Bench.Spec.Seed, edited[0].Bench.Spec.Seed, b.Spec.Seed)
	}
	// Both stay their own entry: repeating either simulates nothing.
	if _, err := e.Sweep(ctx, []Cell{{Bench: name, Threads: 2}, {Spec: &b.Spec, Threads: 2}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CellRuns != 2 {
		t.Errorf("repeat re-simulated: %+v", st)
	}
}

// TestMemoisedNamedCellHashesNothing holds the hit path of a registered name
// to its allocation count: the fingerprint comes out of the name index, so
// nothing is canonicalised, marshalled or hashed (28 allocations per call
// before the index, 17 with it). The same cell given as an inline spec still
// hashes, once, and so allocates more.
func TestMemoisedNamedCellHashesNothing(t *testing.T) {
	const name = "blackscholes_parsec_small"
	e := NewEngine(sim.Default(), WithWorkers(2))
	ctx := context.Background()
	b, _ := workload.ByName(name)
	namedReq := []Request{{Cell: Cell{Bench: name, Threads: 2}}}
	inlineReq := []Request{{Cell: Cell{Spec: &b.Spec, Threads: 2}}}
	if _, err := e.Do(ctx, namedReq); err != nil {
		t.Fatal(err)
	}
	named := testing.AllocsPerRun(100, func() { e.Do(ctx, namedReq) })
	inline := testing.AllocsPerRun(100, func() { e.Do(ctx, inlineReq) })
	if st := e.Stats(); st.CellRuns != 1 {
		t.Fatalf("the measured calls simulated: %+v", st)
	}
	if named > 20 {
		t.Errorf("a memoised named cell costs %v allocations per Do, want <= 20", named)
	}
	if inline <= named {
		t.Errorf("inline spec %v allocations, named %v: the named path is hashing too", inline, named)
	}
}
