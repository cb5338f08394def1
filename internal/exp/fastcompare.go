package exp

import (
	"context"
	"fmt"
	"strings"

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
	outs := make([]Outcome, 2*len(cells))
	err := e.Do(ctx, append(onMachine(e.base.WithMode(sim.ModeExact), cells),
		onMachine(e.base.WithMode(sim.ModeFast), cells)...), func(i int, out Outcome) { outs[i] = out })
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

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
