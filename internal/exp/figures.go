package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/scaling"
	"repro/internal/stack"
	"repro/internal/workload"
)

// ThreadCounts is the paper's sweep: 1 is the sequential reference point.
var ThreadCounts = []int{2, 4, 8, 16}

// Figure1Benchmarks are the speedup-curve exemplars of Figures 1 and 5.
var Figure1Benchmarks = []string{
	"blackscholes_parsec_medium",
	"facesim_parsec_medium",
	"cholesky_splash2",
}

// exemplarCells declares the Figure 1/5 grid: the three exemplars at every
// thread count. Figures 1 and 5 share these cells, so an engine that runs
// both simulates them once.
func exemplarCells() []Cell {
	cells := make([]Cell, 0, len(Figure1Benchmarks)*len(ThreadCounts))
	for _, name := range Figure1Benchmarks {
		for _, n := range ThreadCounts {
			cells = append(cells, Cell{Bench: name, Threads: n})
		}
	}
	return cells
}

// allBenchCells declares every registered benchmark at the given thread
// counts, thread-count-major (the validation table's iteration order).
func allBenchCells(threadCounts ...int) []Cell {
	benches := workload.All()
	cells := make([]Cell, 0, len(benches)*len(threadCounts))
	for _, n := range threadCounts {
		for _, b := range benches {
			cells = append(cells, Cell{Bench: b.FullName(), Threads: n})
		}
	}
	return cells
}

// cellsAt declares the named benchmarks at one thread count.
func cellsAt(threads int, names []string) []Cell {
	cells := make([]Cell, len(names))
	for i, name := range names {
		cells[i] = Cell{Bench: name, Threads: threads}
	}
	return cells
}

// SpeedupCurve is one benchmark's scaling curve (Figure 1).
type SpeedupCurve struct {
	Benchmark string
	Points    []scaling.Point
}

// Figure1 reproduces the speedup curves of Figure 1: speedup as a function
// of the number of threads for blackscholes, facesim and cholesky.
func Figure1(ctx context.Context, e *Engine) ([]SpeedupCurve, error) {
	outs, err := e.Sweep(ctx, exemplarCells())
	if err != nil {
		return nil, err
	}
	curves := make([]SpeedupCurve, 0, len(Figure1Benchmarks))
	i := 0
	for _, name := range Figure1Benchmarks {
		c := SpeedupCurve{Benchmark: name, Points: []scaling.Point{{Threads: 1, Speedup: 1}}}
		for _, n := range ThreadCounts {
			c.Points = append(c.Points, scaling.Point{Threads: n, Speedup: outs[i].Stack.ActualSpeedup})
			i++
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// FormatCurves renders speedup curves as an aligned text table.
func FormatCurves(curves []SpeedupCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s", "benchmark \\ threads")
	if len(curves) > 0 {
		for _, p := range curves[0].Points {
			fmt.Fprintf(&b, "%8d", p.Threads)
		}
	}
	b.WriteByte('\n')
	for _, c := range curves {
		fmt.Fprintf(&b, "%-30s", c.Benchmark)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "%8.2f", p.Speedup)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ValidationRow is one line of the Section 6 validation table.
type ValidationRow struct {
	Threads int
	// MeanAbsErrPct is the average of |Ŝ−S|/N over all benchmarks, in %.
	MeanAbsErrPct float64
	// MaxAbsErrPct is the worst benchmark's error, in %.
	MaxAbsErrPct float64
	// Worst is the benchmark with the largest absolute error.
	Worst string
}

// Validation reproduces the Section 6 accuracy numbers: average absolute
// speedup-estimation error per thread count (the paper reports 3.0, 3.4,
// 2.8 and 5.1 % for 2, 4, 8 and 16 threads). The full grid is declared as
// one sweep, so it shares cells with Figures 4 and 6.
func Validation(ctx context.Context, e *Engine) ([]ValidationRow, error) {
	outs, err := e.Sweep(ctx, allBenchCells(ThreadCounts...))
	if err != nil {
		return nil, err
	}
	perCount := len(outs) / len(ThreadCounts)
	rows := make([]ValidationRow, 0, len(ThreadCounts))
	for i, n := range ThreadCounts {
		row := ValidationRow{Threads: n}
		for _, o := range outs[i*perCount : (i+1)*perCount] {
			e := 100 * abs(o.Stack.Error())
			row.MeanAbsErrPct += e
			if e > row.MaxAbsErrPct {
				row.MaxAbsErrPct = e
				row.Worst = o.Bench.FullName()
			}
		}
		row.MeanAbsErrPct /= float64(perCount)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatValidation renders the validation table next to the paper's values.
func FormatValidation(rows []ValidationRow) string {
	paper := map[int]float64{2: 3.0, 4: 3.4, 8: 2.8, 16: 5.1}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s  %s\n",
		"threads", "mean|err|%", "paper %", "max|err|%", "worst benchmark")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %12.1f %12.1f %12.1f  %s\n",
			r.Threads, r.MeanAbsErrPct, paper[r.Threads], r.MaxAbsErrPct, r.Worst)
	}
	return b.String()
}

// Figure4Row is one benchmark's actual-vs-estimated pair at one thread count.
type Figure4Row struct {
	Benchmark string
	Threads   int
	Actual    float64
	Estimated float64
}

// Figure4 reproduces the actual-versus-estimated speedup comparison for all
// benchmarks at 2–16 threads. Its grid is identical to Validation's, so on
// a shared engine the second of the two is free.
func Figure4(ctx context.Context, e *Engine) ([]Figure4Row, error) {
	outs, err := e.Sweep(ctx, allBenchCells(ThreadCounts...))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure4Row, 0, len(outs))
	for _, o := range outs {
		rows = append(rows, Figure4Row{
			Benchmark: o.Bench.FullName(),
			Threads:   o.Stack.N,
			Actual:    o.Stack.ActualSpeedup,
			Estimated: o.Stack.Estimated(),
		})
	}
	return rows, nil
}

// FormatFigure4 renders the actual/estimated pairs grouped by benchmark.
func FormatFigure4(rows []Figure4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %8s %10s %10s %8s\n",
		"benchmark", "threads", "actual", "estimated", "err%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %8d %10.2f %10.2f %+8.1f\n",
			r.Benchmark, r.Threads, r.Actual, r.Estimated,
			100*(r.Estimated-r.Actual)/float64(r.Threads))
	}
	return b.String()
}

// Figure5 reproduces the speedup stacks of blackscholes, facesim and
// cholesky for 2–16 threads and returns them as renderable bars.
func Figure5(ctx context.Context, e *Engine) ([]stack.Bar, error) {
	outs, err := e.Sweep(ctx, exemplarCells())
	if err != nil {
		return nil, err
	}
	bars := make([]stack.Bar, len(outs))
	for i, out := range outs {
		bars[i] = stack.Bar{Label: fmt.Sprintf("%s x%d", out.Bench.Spec.Name, out.Stack.N), Stack: out.Stack}
	}
	return bars, nil
}

// TreeRow is one leaf of the Figure 6 classification tree.
type TreeRow struct {
	Class      stack.ScalingClass
	Components []string // up to 3, largest first
	Benchmark  string
	Suite      string
	Speedup    float64
	// PaperSpeedup and PaperComponents are the published values for
	// side-by-side comparison.
	PaperSpeedup    float64
	PaperComponents []string
}

// Figure6 classifies every benchmark at 16 threads by scaling class and
// dominant components, reproducing the paper's tree.
func Figure6(ctx context.Context, e *Engine) ([]TreeRow, error) {
	outs, err := e.Sweep(ctx, allBenchCells(16))
	if err != nil {
		return nil, err
	}
	rows := make([]TreeRow, 0, len(outs))
	for _, o := range outs {
		rows = append(rows, TreeRow{
			Class:           stack.Classify(o.Stack.ActualSpeedup),
			Components:      stack.TopComponents(o.Stack, 3),
			Benchmark:       o.Bench.Spec.Name,
			Suite:           o.Bench.Spec.Suite,
			Speedup:         o.Stack.ActualSpeedup,
			PaperSpeedup:    o.Bench.PaperSpeedup16,
			PaperComponents: o.Bench.PaperComponents,
		})
	}
	classOrder := map[stack.ScalingClass]int{
		stack.ClassGood: 0, stack.ClassModerate: 1, stack.ClassPoor: 2,
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if classOrder[rows[i].Class] != classOrder[rows[j].Class] {
			return classOrder[rows[i].Class] < classOrder[rows[j].Class]
		}
		return rows[i].Speedup > rows[j].Speedup
	})
	return rows, nil
}

// FormatFigure6 renders the classification tree as an indented table, read
// like the paper's Figure 6: class, then 1st/2nd/3rd component, then the
// benchmark, suite and speedup.
func FormatFigure6(rows []TreeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-16s %-15s %8s %8s\n",
		"scaling", "1st comp", "2nd comp", "3rd comp", "benchmark", "suite",
		"speedup", "paper")
	comp := func(c []string, i int) string {
		if i < len(c) {
			return c[i]
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-16s %-15s %8.2f %8.2f\n",
			r.Class, comp(r.Components, 0), comp(r.Components, 1),
			comp(r.Components, 2), r.Benchmark, r.Suite, r.Speedup,
			r.PaperSpeedup)
	}
	// Summary observation from Section 7.2: yielding dominance.
	first, second := 0, 0
	for _, r := range rows {
		if len(r.Components) > 0 && r.Components[0] == stack.CompYielding {
			first++
		} else if len(r.Components) > 1 && r.Components[1] == stack.CompYielding {
			second++
		}
	}
	fmt.Fprintf(&b, "\nyielding is the largest component for %d/%d benchmarks "+
		"and second largest for %d (paper: 23/28 and 3)\n",
		first, len(rows), second)
	return b.String()
}

// Figure7Row is one bar of the ferret core-count study.
type Figure7Row struct {
	Cores          int
	ThreadsEqCores float64 // speedup with #threads = #cores
	Threads16      float64 // speedup with 16 software threads
}

// figure7CoreCounts is the core-count axis of the ferret study.
var figure7CoreCounts = []int{2, 4, 8, 16}

// Figure7 reproduces the ferret experiment: speedup on 2–16 cores with
// threads=cores versus a fixed 16 software threads. The paper observes that
// 16 threads outperform thread-per-core counts and that performance
// saturates at 8 cores, dipping slightly at 16 due to scheduling overhead.
func Figure7(ctx context.Context, e *Engine) ([]Figure7Row, error) {
	const bench = "ferret_parsec_small"
	cells := make([]Cell, 0, 2*len(figure7CoreCounts))
	for _, cores := range figure7CoreCounts {
		cells = append(cells,
			Cell{Bench: bench, Threads: cores, Cores: cores},
			Cell{Bench: bench, Threads: 16, Cores: cores})
	}
	outs, err := e.Sweep(ctx, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure7Row, 0, len(figure7CoreCounts))
	for i, cores := range figure7CoreCounts {
		rows = append(rows, Figure7Row{
			Cores:          cores,
			ThreadsEqCores: outs[2*i].Stack.ActualSpeedup,
			Threads16:      outs[2*i+1].Stack.ActualSpeedup,
		})
	}
	return rows, nil
}

// FormatFigure7 renders the ferret core sweep.
func FormatFigure7(rows []Figure7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %18s %18s\n", "cores", "threads=cores", "16 threads")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %18.2f %18.2f\n", r.Cores, r.ThreadsEqCores, r.Threads16)
	}
	return b.String()
}

// InterferenceRow decomposes one benchmark's LLC interference (Figure 8/9).
type InterferenceRow struct {
	Label    string
	Negative float64 // negative LLC interference, speedup units
	Positive float64 // positive LLC interference, speedup units
	Net      float64 // negative - positive
}

func interferenceRow(label string, s core.Stack) InterferenceRow {
	tp := float64(s.Tp)
	return InterferenceRow{
		Label:    label,
		Negative: s.Components.NegLLC / tp,
		Positive: s.Components.PosLLC / tp,
		Net:      s.Components.Net() / tp,
	}
}

// Figure8Benchmarks are the benchmarks with non-negligible positive
// interference in the paper's Figure 8 ("canneal large" maps to our
// canneal_parsec_medium analogue).
var Figure8Benchmarks = []string{
	"cholesky_splash2",
	"lu.cont_splash2",
	"canneal_parsec_small",
	"canneal_parsec_medium",
	"bfs_rodinia",
	"lu.ncont_splash2",
	"needle_rodinia",
}

// Figure8 reproduces the negative/positive/net LLC interference components
// at 16 cores for the benchmarks with visible positive sharing. Its cells
// are a subset of the 16-thread validation grid.
func Figure8(ctx context.Context, e *Engine) ([]InterferenceRow, error) {
	outs, err := e.Sweep(ctx, cellsAt(16, Figure8Benchmarks))
	if err != nil {
		return nil, err
	}
	rows := make([]InterferenceRow, len(outs))
	for i, out := range outs {
		rows[i] = interferenceRow(Figure8Benchmarks[i], out.Stack)
	}
	return rows, nil
}

// figure9LLCMBs is the LLC-capacity axis of the cholesky sweep.
var figure9LLCMBs = []int64{2, 4, 8, 16}

// Figure9 reproduces the cholesky LLC-size sweep: negative interference
// shrinks as the LLC grows, positive interference stays roughly constant,
// and the net component can turn negative (cache sharing becomes a win).
// Each LLC size is a distinct machine configuration; the engine runs all
// four in one deduplicated batch.
func Figure9(ctx context.Context, e *Engine) ([]InterferenceRow, error) {
	reqs := make([]Request, len(figure9LLCMBs))
	for i, mb := range figure9LLCMBs {
		cfg := e.Config().WithLLCSize(mb << 20)
		reqs[i] = Request{
			Cell:   Cell{Bench: "cholesky_splash2", Threads: 16},
			Config: &cfg,
		}
	}
	rows := make([]InterferenceRow, len(reqs))
	err := e.Do(ctx, reqs, func(i int, out Outcome) {
		rows[i] = interferenceRow(fmt.Sprintf("%dMB", figure9LLCMBs[i]), out.Stack)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatInterference renders Figure 8/9 rows.
func FormatInterference(rows []InterferenceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %10s %10s\n", "benchmark", "negative", "positive", "net")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.2f %10.2f %+10.2f\n", r.Label, r.Negative, r.Positive, r.Net)
	}
	return b.String()
}

// HardwareCostReport renders the Section 4.7 hardware budget.
func HardwareCostReport() string {
	budget := core.Cost(core.PaperCostParams())
	var b strings.Builder
	fmt.Fprintf(&b, "interference accounting: ATD %d B + ORA %d B + counters %d B = %d B/core (paper: 952 B)\n",
		budget.ATDBytes, budget.ORABytes, budget.CounterBytes, budget.InterferenceBytes())
	fmt.Fprintf(&b, "spin detection load table: %d B/core (paper: 217 B)\n", budget.SpinTableBytes)
	fmt.Fprintf(&b, "total: %d B/core, %.1f KB for a 16-core CMP (paper: ~1.1 KB/core, 18 KB)\n",
		budget.PerCoreBytes(), float64(budget.TotalBytes(16))/1024)
	return b.String()
}
