package exp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/stack"
	"repro/internal/workload"
)

// The artifact registry: what `experiments` prints, in output order. The
// command and the root package's golden test (testdata/experiments.json)
// both iterate it; PAPER.md's figure map names each section.

// Params are the inputs of the sections that take any; start from
// DefaultParams.
type Params struct {
	Spec       func() (workload.Spec, error)  // custom: loads the workload
	Intervals  int                            // phases: intervals per run
	Timelines  func([]stack.TimeSeries) error // phases: receives the series, if set
	MaxThreads int                            // advise: sweep top
	Threads    int                            // whatif, calibrate: thread count
}

// The inputs of every door that names none: the paper's 16-thread machine
// (thread count and advisor sweep top) and a time-resolved slice count.
const (
	DefaultThreads   = 16
	DefaultIntervals = 32
)

// DefaultParams are the sections' inputs when no flag overrides them.
var DefaultParams = Params{Intervals: DefaultIntervals, MaxThreads: DefaultThreads, Threads: DefaultThreads}

// Artifact is one section of the evaluation: Name selects it on the command
// line and names its digest, Run produces its body, and an OnDemand section
// runs only when named ("all" runs the paper's artifacts and the ablations).
type Artifact struct {
	Name     string
	OnDemand bool
	Run      func(context.Context, *Engine, Params) (string, error)
}

// Artifacts is the registry, in output order.
var Artifacts = []Artifact{
	{Name: "fig1", Run: show(Figure1, FormatCurves)},
	{Name: "validation", Run: show(Validation, FormatValidation)},
	{Name: "fig4", Run: show(Figure4, FormatFigure4)},
	{Name: "fig5", Run: show(Figure5, func(bars []stack.Bar) string { return stack.Bars(bars).Text() })},
	{Name: "fig6", Run: show(Figure6, FormatFigure6)},
	{Name: "fig7", Run: show(Figure7, FormatFigure7)},
	{Name: "fig8", Run: show(Figure8, FormatInterference)},
	{Name: "fig9", Run: show(Figure9, FormatInterference)},
	{Name: "hwcost", Run: func(context.Context, *Engine, Params) (string, error) {
		return HardwareCostReport(), nil
	}},
	{Name: "ablation", Run: show(Ablation, FormatAblation)},
	{Name: "phases", OnDemand: true, Run: runPhases},
	{Name: "custom", OnDemand: true, Run: runCustom},
	{Name: "whatif", OnDemand: true, Run: runWhatIf},
	{Name: "fastcompare", OnDemand: true, Run: show(ValidationCompare, FormatValidationCompare)},
	{Name: "advise", OnDemand: true, Run: runAdvise},
	{Name: "calibrate", OnDemand: true, Run: runCalibrate},
}

// Frame renders a section the way `experiments` prints it: a header line,
// the body, a blank line.
func Frame(name, body string) string {
	return "==== " + name + " ====\n" + body + "\n"
}

// show adapts a figure generator and its formatter into a section body.
func show[T any](gen func(context.Context, *Engine) (T, error), format func(T) string) func(context.Context, *Engine, Params) (string, error) {
	return func(ctx context.Context, e *Engine, _ Params) (string, error) {
		v, err := gen(ctx, e)
		if err != nil {
			return "", err
		}
		return format(v), nil
	}
}

// runCustom sweeps the -spec workload across the thread counts {1, 2, 4,
// 8, 16} and prints its stacks.
func runCustom(ctx context.Context, e *Engine, p Params) (string, error) {
	if p.Spec == nil {
		return "", errors.New("the custom section needs -spec FILE (a workload spec JSON)")
	}
	spec, err := p.Spec()
	if err != nil {
		return "", err
	}
	// The sequential point, then the paper's sweep.
	cells := []Cell{{Spec: &spec, Threads: 1}}
	for _, n := range ThreadCounts {
		cells = append(cells, Cell{Spec: &spec, Threads: n})
	}
	outs, err := e.Sweep(ctx, cells)
	if err != nil {
		return "", err
	}
	bars := make(stack.Bars, len(outs))
	for i, o := range outs {
		bars[i] = stack.Bar{Label: fmt.Sprintf("%s x%d", o.Bench.FullName(), o.Stack.N), Stack: o.Stack}
	}
	return fmt.Sprintf("workload %s (fingerprint %s)\n\n",
		workload.Benchmark{Spec: spec}.FullName(), spec.Fingerprint().Short()) + bars.Text(), nil
}
