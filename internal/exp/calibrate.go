package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// runCalibrate is the calibrate section, the tuning loop used while matching
// the workload specs to the published behaviour and the repo's ground-truth
// reader. For every analogue at p.Threads it prints the measured and
// estimated speedups, the error and the dominant components next to the
// paper's Figure 6 targets, then the component table, then the oracle
// decomposition (sim.Result.Oracle) of the same cell re-run at
// ATDSampleShift = 0: there the one tag directory per core covers every LLC
// set and so is the private LLC the sampled estimate approximates, next to
// the terms hardware cannot see. Like the sampling ablation it studies the
// hardware proposal, so it runs on the exact machine in every mode, and it
// declares the cells and their shift-0 reruns in one batch.
func runCalibrate(ctx context.Context, e *Engine, p Params) (string, error) {
	base := e.Config().WithMode(sim.ModeExact)
	truth := base
	truth.ATDSampleShift = 0
	benches := workload.All()
	cells := make([]Cell, len(benches))
	for i, b := range benches {
		cells[i] = Cell{Bench: b.FullName(), Threads: p.Threads}
	}
	outs := make([]Outcome, 2*len(cells))
	err := e.Do(ctx, append(onMachine(base, cells), onMachine(truth, cells)...), func(i int, out Outcome) { outs[i] = out })
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %7s %7s %7s %7s  %-34s %s\n",
		"benchmark", "paper", "actual", "est", "err%", "components (measured)", "target")
	for i, bench := range benches {
		s := outs[i].Stack
		fmt.Fprintf(&b, "%-28s %7.2f %7.2f %7.2f %+6.1f  %-34s %v\n",
			bench.FullName(), bench.PaperSpeedup16, s.ActualSpeedup, s.Estimated(),
			100*s.Error(), fmt.Sprint(stack.TopComponents(s, 3)), bench.PaperComponents)
		b.WriteString(stack.Table([]stack.Bar{{Label: bench.FullName(), Stack: s}}))
		gt := outs[len(benches)+i]
		o, tp := gt.Oracle, float64(gt.Stack.Tp)
		fmt.Fprintf(&b, "  oracle: posLLC=%.2f negLLC=%.2f mem=%.2f spin=%.2f yield=%.2f imbal=%.2f coher=%.2f ovh=%.2f\n",
			o.PosLLC/tp, o.NegLLC/tp, o.NegMem/tp, o.Spin/tp, o.Yield/tp,
			o.Imbalance/tp, o.Coherence/tp, o.ParallelOverhead/tp)
	}
	return b.String(), nil
}
