package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// outcomes runs e.Do and collects what it delivers, as Sweep does.
func outcomes(ctx context.Context, e *Engine, reqs []Request) ([]Outcome, error) {
	outs := make([]Outcome, len(reqs))
	if err := e.Do(ctx, reqs, func(i int, out Outcome) { outs[i] = out }); err != nil {
		return nil, err
	}
	return outs, nil
}

// sweepTestCells is a small grid with an intra-batch duplicate: two cheap
// benchmarks at two thread counts each.
func sweepTestCells() []Cell {
	return []Cell{
		{Bench: "blackscholes_parsec_small", Threads: 2},
		{Bench: "swaptions_parsec_small", Threads: 2},
		{Bench: "blackscholes_parsec_small", Threads: 4},
		{Bench: "swaptions_parsec_small", Threads: 4},
		{Bench: "blackscholes_parsec_small", Threads: 2}, // duplicate
	}
}

// TestSweepDeterministicAcrossWorkers runs the same sweep under 1, 4 and 8
// workers and requires identical outcomes and identical rendered text: the
// worker count must never leak into results.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var ref []Outcome
	var refText string
	for _, workers := range []int{1, 4, 8} {
		e := NewEngine(sim.Default(), WithWorkers(workers))
		outs, err := e.Sweep(context.Background(), sweepTestCells())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rows := make([]Figure4Row, len(outs))
		for i, o := range outs {
			rows[i] = Figure4Row{
				Benchmark: o.Bench.FullName(), Threads: o.Stack.N,
				Actual: o.Stack.ActualSpeedup, Estimated: o.Stack.Estimated(),
			}
		}
		text := FormatFigure4(rows)
		if ref == nil {
			ref, refText = outs, text
			continue
		}
		if !reflect.DeepEqual(outs, ref) {
			t.Fatalf("workers=%d: outcomes differ from workers=1", workers)
		}
		if text != refText {
			t.Fatalf("workers=%d: rendered text differs:\n%s\nvs\n%s", workers, text, refText)
		}
	}
	if ref[0].Stack.ActualSpeedup <= 1 {
		t.Fatalf("implausible speedup %v", ref[0].Stack.ActualSpeedup)
	}
}

// TestSweepDedup verifies the memo: duplicates within one batch, repeated
// batches, and shared sequential references each simulate exactly once.
func TestSweepDedup(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	e := NewEngine(sim.Default(), WithWorkers(4),
		WithRunHook(func(kind, bench string, threads, cores int) {
			mu.Lock()
			runs[fmt.Sprintf("%s %s x%d/%d", kind, bench, threads, cores)]++
			mu.Unlock()
		}))

	cells := sweepTestCells()
	outs1, err := e.Sweep(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs1) != len(cells) {
		t.Fatalf("got %d outcomes for %d cells", len(outs1), len(cells))
	}
	if !reflect.DeepEqual(outs1[0], outs1[4]) {
		t.Fatal("duplicate cells produced different outcomes")
	}
	// Second pass over the same grid must be served entirely from the memo.
	outs2, err := e.Sweep(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs1, outs2) {
		t.Fatal("memoized pass differs from simulated pass")
	}

	for key, n := range runs {
		if n != 1 {
			t.Errorf("%s simulated %d times, want 1", key, n)
		}
	}
	// 4 unique cells + 2 sequential references.
	if len(runs) != 6 {
		t.Errorf("got %d unique simulations, want 6: %v", len(runs), runs)
	}
	st := e.Stats()
	if st.CellRuns != 4 || st.SeqRuns != 2 {
		t.Errorf("stats = %+v, want 4 cell runs and 2 seq runs", st)
	}
	if st.CellHits == 0 {
		t.Error("expected memo hits on the second pass")
	}

	// A different machine configuration must not hit the cell memo. The
	// sequential reference does not read the quantum, so it still hits.
	cfg := sim.Default()
	cfg.Quantum = 200
	if _, err := outcomes(context.Background(), e, onMachine(cfg, cells[:1])); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CellRuns != 5 || st.SeqRuns != 2 {
		t.Errorf("stats after config change = %+v, want 5 cell runs and 2 seq runs", st)
	}

	// Past dedupScan cells a batch deduplicates through a map: the grid
	// three times over, on a fresh engine, simulates the same four cells
	// and answers every copy.
	big := slices.Concat(cells, cells, cells)
	fresh := NewEngine(sim.Default(), WithWorkers(4))
	outs3, err := fresh.Sweep(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= dedupScan || !reflect.DeepEqual(outs3, slices.Concat(outs1, outs1, outs1)) {
		t.Errorf("a %d-cell batch (dedupScan %d) answered other outcomes than the grid's", len(big), dedupScan)
	}
	if st := fresh.Stats(); st.CellRuns != 4 || st.CellsDeclared != 4 {
		t.Errorf("the grid three times over: stats = %+v, want 4 cell runs and 4 cells declared", st)
	}
}

// TestSweepCancellation cancels mid-sweep and requires a prompt context
// error instead of the full grid being simulated.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	e := NewEngine(sim.Default(), WithWorkers(1),
		WithRunHook(func(kind, bench string, threads, cores int) {
			if kind == "cell" && ran.Add(1) == 1 {
				cancel()
			}
		}))
	// A grid large enough that cancellation after the first cell leaves
	// most of it unsimulated.
	var cells []Cell
	for _, n := range []int{2, 4, 8, 16} {
		for _, b := range []string{"blackscholes_parsec_small", "swaptions_parsec_small", "lud_rodinia"} {
			cells = append(cells, Cell{Bench: b, Threads: n})
		}
	}
	t0 := time.Now()
	_, err := e.Sweep(ctx, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := int(ran.Load()); got > 2 {
		t.Errorf("%d cells simulated after cancellation, want at most 2", got)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	// The engine must stay usable: a fresh context retries the claims the
	// canceled sweep abandoned.
	outs, err := e.Sweep(context.Background(), cells[:2])
	if err != nil || len(outs) != 2 {
		t.Fatalf("sweep after cancellation: %v", err)
	}
}

// TestSweepCanceledBeforeStart returns immediately without simulating.
func TestSweepCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(sim.Default())
	_, err := e.Sweep(ctx, sweepTestCells())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.CellRuns != 0 || st.SeqRuns != 0 {
		t.Errorf("simulations ran under a canceled context: %+v", st)
	}
}

// TestSweepUnknownBenchmark fails fast, before any simulation.
func TestSweepUnknownBenchmark(t *testing.T) {
	e := NewEngine(sim.Default())
	_, err := e.Sweep(context.Background(), []Cell{
		{Bench: "blackscholes_parsec_small", Threads: 2},
		{Bench: "no_such_benchmark", Threads: 2},
	})
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	// The refusal is the failing cell's own, unprefixed: a caller that names
	// cells (the service's "cell i: ") labels them itself.
	if want := workload.UnknownBenchmarkError("no_such_benchmark"); err.Error() != want.Error() ||
		!errors.Is(err, workload.ErrUnknownBenchmark) {
		t.Errorf("error %q, want the cell's own %q", err, want)
	}
	if st := e.Stats(); st.CellRuns != 0 {
		t.Errorf("simulations ran despite resolution failure: %+v", st)
	}
}

// TestSweepProgress checks the engine's progress counters: one Do is one
// batch, and every unique cell it declares is counted declared and done
// once, the in-batch duplicate included once. A batch the memo answers
// whole still counts as a batch and all its cells, so a section's batch
// count does not depend on what the memo already holds.
func TestSweepProgress(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(2))
	progress := func() [3]int {
		st := e.Stats()
		return [3]int{st.Batches, st.CellsDeclared, st.CellsDone}
	}
	if _, err := e.Sweep(context.Background(), sweepTestCells()); err != nil {
		t.Fatal(err)
	}
	if got := progress(); got != [3]int{1, 4, 4} {
		t.Fatalf("(batches, declared, done) = %v, want [1 4 4] (unique cells)", got)
	}
	runs := e.Stats().CellRuns
	if _, err := e.Sweep(context.Background(), sweepTestCells()); err != nil {
		t.Fatal(err)
	}
	if got := progress(); got != [3]int{2, 8, 8} {
		t.Errorf("after a memo-answered batch (batches, declared, done) = %v, want [2 8 8]", got)
	}
	if st := e.Stats(); st.CellRuns != runs {
		t.Errorf("memo-answered batch simulated %d cells", st.CellRuns-runs)
	}
}

// TestEngineSharedAcrossOverlappingSweeps mimics the figure pattern: a
// second sweep whose cells are a subset of the first runs no simulations.
func TestEngineSharedAcrossOverlappingSweeps(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(4))
	if _, err := e.Sweep(context.Background(), sweepTestCells()); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if _, err := e.Sweep(context.Background(), sweepTestCells()[:2]); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.CellRuns != before.CellRuns || after.SeqRuns != before.SeqRuns {
		t.Fatalf("overlapping sweep re-simulated: before %+v after %+v", before, after)
	}
}
