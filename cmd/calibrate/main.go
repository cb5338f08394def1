// Command calibrate runs the benchmark analogues at 16 threads and prints
// measured speedups, estimation errors, and dominant speedup-stack
// components next to the paper's Figure 6 targets. It is the tuning loop
// used while matching the workload specs to the published behaviour.
//
// With -v it is also the repo's ground-truth reader: under each stack it
// prints the oracle decomposition (sim.Result.Oracle) of the same cell
// re-run at ATDSampleShift = 0, where the one tag directory per core covers
// every LLC set and so is the private LLC the sampled estimate approximates,
// next to the terms hardware cannot see. It stays a command of its own
// because that extra simulation per benchmark belongs to tuning, not to the
// evaluation `experiments` regenerates.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

func main() {
	threads := flag.Int("threads", 16, "thread count (= cores)")
	only := flag.String("only", "", "run a single benchmark (name or name_suite)")
	verbose := flag.Bool("v", false, "print the full component table per benchmark")
	flag.Parse()

	e := exp.NewEngine(sim.Default())
	truth := e.Config()
	truth.ATDSampleShift = 0
	benches := workload.All()
	if *only != "" {
		b, ok := workload.ByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *only)
			os.Exit(1)
		}
		benches = []workload.Benchmark{b}
	}

	fmt.Printf("%-28s %7s %7s %7s %7s  %-34s %s\n",
		"benchmark", "paper", "actual", "est", "err%", "components (measured)", "target")
	for _, b := range benches {
		t0 := time.Now()
		cell := []exp.Cell{{Bench: b.FullName(), Threads: *threads}}
		outs, err := e.Sweep(context.Background(), cell)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", b.FullName(), err)
			continue
		}
		out := outs[0]
		comps := stack.TopComponents(out.Stack, 3)
		fmt.Printf("%-28s %7.2f %7.2f %7.2f %+6.1f  %-34s %v  (%.2fs)\n",
			b.FullName(), b.PaperSpeedup16, out.Stack.ActualSpeedup, out.Stack.Estimated(),
			100*out.Stack.Error(), fmt.Sprint(comps), b.PaperComponents,
			time.Since(t0).Seconds())
		if *verbose {
			fmt.Print(stack.Table([]stack.Bar{{Label: b.FullName(), Stack: out.Stack}}))
			gt, err := e.SweepConfig(context.Background(), truth, cell)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: ground truth: %v\n", b.FullName(), err)
				continue
			}
			o := gt[0].Result.Oracle
			tp := float64(gt[0].Stack.Tp)
			fmt.Printf("  oracle: posLLC=%.2f negLLC=%.2f mem=%.2f spin=%.2f yield=%.2f imbal=%.2f coher=%.2f ovh=%.2f\n",
				o.PosLLC/tp, o.NegLLC/tp, o.NegMem/tp, o.Spin/tp, o.Yield/tp,
				o.Imbalance/tp, o.Coherence/tp, o.ParallelOverhead/tp)
		}
	}
}
