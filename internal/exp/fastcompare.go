package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// ValidationCompareRow is one line of the exact-vs-fast accuracy table: the
// Section 6 validation error in both modes plus the direct fast-vs-exact
// speedup delta, per thread count.
type ValidationCompareRow struct {
	Threads int
	// ExactMeanAbsErrPct and FastMeanAbsErrPct are the validation table's
	// mean |Ŝ−S|/N (in %) computed from exact-mode and fast-mode runs.
	ExactMeanAbsErrPct float64
	FastMeanAbsErrPct  float64
	// MeanAbsDeltaPct and MaxAbsDeltaPct are the mean and worst
	// |Ŝ_fast − Ŝ_exact|/N over all benchmarks, in % — the accuracy cost of
	// the fast lane itself, independent of how well either mode matches the
	// actual speedup.
	MeanAbsDeltaPct float64
	MaxAbsDeltaPct  float64
	// Worst is the benchmark with the largest |Ŝ_fast − Ŝ_exact|/N.
	Worst string
}

// ValidationCompare runs the full validation grid (every registered
// analogue at every thread count) in both exact and fast mode on one
// engine and pairs the results. The two grids never alias in the memo —
// Mode is part of the cell key — so each mode's numbers are exactly what
// Validation would report for that mode. Both grids are declared in one
// batch.
func ValidationCompare(ctx context.Context, e *Engine) ([]ValidationCompareRow, error) {
	cells := allBenchCells(ThreadCounts...)
	outs, err := e.Do(ctx, append(onMachine(e.base.WithMode(sim.ModeExact), cells),
		onMachine(e.base.WithMode(sim.ModeFast), cells)...))
	if err != nil {
		return nil, err
	}
	exact, fast := outs[:len(cells)], outs[len(cells):]
	perCount := len(cells) / len(ThreadCounts)
	rows := make([]ValidationCompareRow, 0, len(ThreadCounts))
	for i, n := range ThreadCounts {
		row := ValidationCompareRow{Threads: n}
		for j := i * perCount; j < (i+1)*perCount; j++ {
			ex, fa := exact[j], fast[j]
			row.ExactMeanAbsErrPct += 100 * abs(ex.Stack.Error())
			row.FastMeanAbsErrPct += 100 * abs(fa.Stack.Error())
			delta := 100 * abs(fa.Stack.Estimated()-ex.Stack.Estimated()) / float64(n)
			row.MeanAbsDeltaPct += delta
			if delta > row.MaxAbsDeltaPct {
				row.MaxAbsDeltaPct = delta
				row.Worst = ex.Bench.FullName()
			}
		}
		row.ExactMeanAbsErrPct /= float64(perCount)
		row.FastMeanAbsErrPct /= float64(perCount)
		row.MeanAbsDeltaPct /= float64(perCount)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatValidationCompare renders the validation table with the
// exact-vs-fast delta columns (the `experiments fastcompare` section).
func FormatValidationCompare(rows []ValidationCompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %14s %14s %10s %10s  %s\n",
		"threads", "exact mean|e|%", "fast mean|e|%", "mean|Δ|%", "max|Δ|%", "worst benchmark")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %14.1f %14.1f %10.2f %10.2f  %s\n",
			r.Threads, r.ExactMeanAbsErrPct, r.FastMeanAbsErrPct,
			r.MeanAbsDeltaPct, r.MaxAbsDeltaPct, r.Worst)
	}
	return b.String()
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

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
