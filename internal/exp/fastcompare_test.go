package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastBoundThreadCounts is the error-bound regression grid, matching the
// what-if regression's mid-scale and full-machine points.
var fastBoundThreadCounts = []int{4, 16}

// TestFastModeErrorBoundsRegression is the fast-lane accuracy contract:
// every registry analogue at 4 and 16 threads, simulated in both modes,
// must keep every per-component deviation (and the speedup deltas) within
// the documented sim.FastErrorBounds. Both modes are fully deterministic,
// so an excursion is a finding, not a flake: either the sampled model or
// the extrapolation changed meaning. Runs under CI's -race job alongside
// the what-if regression.
func TestFastModeErrorBoundsRegression(t *testing.T) {
	e := sharedEngine()
	ctx := context.Background()

	var cells []Cell
	for _, b := range workload.All() {
		for _, n := range fastBoundThreadCounts {
			cells = append(cells, Cell{Bench: b.FullName(), Threads: n})
		}
	}
	exact, err := e.Do(ctx, onMachine(e.Config().WithMode(sim.ModeExact), cells))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := e.Do(ctx, onMachine(e.Config().WithMode(sim.ModeFast), cells))
	if err != nil {
		t.Fatal(err)
	}

	bounds := sim.FastErrorBounds
	var worst FastDeviation
	max := func(cur *float64, v float64) {
		if v > *cur {
			*cur = v
		}
	}
	for i := range cells {
		d := Deviation(exact[i], fast[i])
		if field := d.Exceeds(bounds); field != "" {
			t.Errorf("%s x%d: %s deviation exceeds FastErrorBounds: %+v",
				d.Benchmark, d.Threads, field, d)
		}
		max(&worst.NegLLC, d.NegLLC)
		max(&worst.PosLLC, d.PosLLC)
		max(&worst.NegMem, d.NegMem)
		max(&worst.Spin, d.Spin)
		max(&worst.Yield, d.Yield)
		max(&worst.Imbalance, d.Imbalance)
		max(&worst.Speedup, d.Speedup)
		max(&worst.ActualSpeedup, d.ActualSpeedup)
	}
	t.Logf("observed maxima over %d cells: NegLLC %.4f PosLLC %.4f NegMem %.4f Spin %.4f Yield %.4f Imbalance %.4f Speedup %.4f ActualSpeedup %.4f",
		len(cells), worst.NegLLC, worst.PosLLC, worst.NegMem, worst.Spin,
		worst.Yield, worst.Imbalance, worst.Speedup, worst.ActualSpeedup)
}

// TestFastStacksStableAcrossWorkers pins fast mode's determinism contract
// at the engine layer (mirroring TestWhatIfRankingStableAcrossWorkers):
// the same fast-mode cells produce byte-identical outcomes on a serial and
// a wide engine, and on repeated sweeps of the same engine.
func TestFastStacksStableAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	cells := []Cell{
		{Bench: "cholesky_splash2", Threads: 16},
		{Bench: "ferret_parsec_medium", Threads: 8},
		{Bench: "water-nsquared_splash2", Threads: 4},
	}
	fastCfg := sim.Default().WithMode(sim.ModeFast)

	serial := NewEngine(fastCfg, WithWorkers(1))
	wide := NewEngine(fastCfg, WithWorkers(8))
	want, err := serial.Sweep(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wide.Sweep(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fast-mode outcomes differ between 1-worker and 8-worker engines")
	}
	// Repeated sweeps hit the memo; a fresh engine re-simulates. Both must
	// reproduce the same bytes.
	fresh := NewEngine(fastCfg, WithWorkers(8))
	again, err := fresh.Sweep(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatal("fast-mode outcomes differ across engines")
	}
	if s := fresh.Stats(); s.FastCellRuns != len(cells) {
		t.Errorf("fast run counters not tracked: %+v", s)
	}
}

// TestValidationCompareShape sanity-checks the fastcompare section: one row
// per thread count, fast deltas populated and within the speedup bound.
func TestValidationCompareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid comparison is not a -short test")
	}
	e := sharedEngine()
	rows, err := ValidationCompare(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ThreadCounts) {
		t.Fatalf("got %d rows, want %d", len(rows), len(ThreadCounts))
	}
	for _, r := range rows {
		if r.Worst == "" {
			t.Errorf("threads=%d: no worst benchmark recorded", r.Threads)
		}
		if r.MaxAbsDeltaPct > 100*sim.FastErrorBounds.Speedup {
			t.Errorf("threads=%d: max delta %.2f%% exceeds the documented speedup bound",
				r.Threads, r.MaxAbsDeltaPct)
		}
	}
	tbl := FormatValidationCompare(rows)
	if !strings.Contains(tbl, "exact mean|e|%") || len(strings.Split(tbl, "\n")) < 5 {
		t.Errorf("unexpected table:\n%s", tbl)
	}
}

// FastDeviation is the per-component deviation of one fast-mode outcome
// from its exact-mode counterpart, in the fields and units of the bounds it
// is held to: speedup units, each mode's component cycles divided by its
// own Tp.
type FastDeviation struct {
	Benchmark string
	Threads   int
	sim.FastBounds
}

// Exceeds reports the first field exceeding the given bounds, or "" when
// every deviation is within them.
func (d FastDeviation) Exceeds(b sim.FastBounds) string {
	switch {
	case d.NegLLC > b.NegLLC:
		return "NegLLC"
	case d.PosLLC > b.PosLLC:
		return "PosLLC"
	case d.NegMem > b.NegMem:
		return "NegMem"
	case d.Spin > b.Spin:
		return "Spin"
	case d.Yield > b.Yield:
		return "Yield"
	case d.Imbalance > b.Imbalance:
		return "Imbalance"
	case d.Speedup > b.Speedup:
		return "Speedup"
	case d.ActualSpeedup > b.ActualSpeedup:
		return "ActualSpeedup"
	}
	return ""
}

// Deviation pairs an exact and a fast outcome of the same cell into the
// per-component deviation the error-bound regression asserts.
func Deviation(exact, fast Outcome) FastDeviation {
	comp := func(f func(core.Components) float64) float64 {
		return abs(f(fast.Stack.Components)/float64(fast.Stack.Tp) -
			f(exact.Stack.Components)/float64(exact.Stack.Tp))
	}
	return FastDeviation{exact.Bench.FullName(), exact.Stack.N, sim.FastBounds{
		NegLLC:        comp(func(c core.Components) float64 { return c.NegLLC }),
		PosLLC:        comp(func(c core.Components) float64 { return c.PosLLC }),
		NegMem:        comp(func(c core.Components) float64 { return c.NegMem }),
		Spin:          comp(func(c core.Components) float64 { return c.Spin }),
		Yield:         comp(func(c core.Components) float64 { return c.Yield }),
		Imbalance:     comp(func(c core.Components) float64 { return c.Imbalance }),
		Speedup:       abs(fast.Stack.Estimated() - exact.Stack.Estimated()),
		ActualSpeedup: abs(fast.Stack.ActualSpeedup - exact.Stack.ActualSpeedup),
	}}
}
