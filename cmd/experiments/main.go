// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 1 and 4–9, the Section 6 validation table, and the
// Section 4.7 hardware cost budget) on the simulated 16-core machine.
//
// All figures share one sweep engine: cells common to several figures
// (e.g. the validation grid reused by Figures 4 and 6) are simulated once,
// fanned out over -workers simulation workers. Figure text goes to stdout
// and is byte-identical regardless of the worker count; timing and
// progress go to stderr.
//
// Usage:
//
//	experiments [flags] [fig1|fig4|fig5|fig6|fig7|fig8|fig9|validation|hwcost|ablation|all]
//	experiments custom -spec mykernel.json
//	experiments phases [-intervals 32] [-outdir DIR]
//	experiments advise [-max-threads 16]
//	experiments whatif [-threads 16]
//	experiments fastcompare
//	experiments all -mode fast
//
// The custom section is the bring-your-own-benchmark path: it sweeps the
// workload described by -spec FILE (a JSON workload spec) across thread
// counts on the same engine, machine and dedup pipeline as the paper's
// figures. The phases section measures the phase-heavy analogues
// time-resolved (-intervals slices per run), printing interval tables and,
// with -outdir, writing stacked-timeline SVGs. The advise section runs the
// scaling advisor (internal/scaling) over every registered analogue:
// Amdahl/USL fits of a 1..-max-threads sweep, the classification, the
// serial-fraction cross-check against the stack, and each benchmark's top
// recommendation. The whatif section runs the causal what-if engine
// (internal/whatif) over every analogue at -threads threads, printing each
// benchmark's top intervention with its predicted and re-simulated gains.
// The fastcompare section runs the full validation grid in both simulation
// modes and prints the validation table with exact-vs-fast delta columns —
// the accuracy evidence behind sim.FastErrorBounds. All five run only when
// named explicitly — "all" regenerates exactly the paper's artifacts.
//
// -mode fast runs every requested section on the sampled fast-mode machine
// (several times faster, deterministic, error-bounded by
// sim.FastErrorBounds); the default is the exact, byte-identical machine.
// One table is exact in every mode and says so in its heading: the
// ablation's ATD sampling sweep studies the accuracy of the hardware
// proposal and needs sampling rates a fast-mode machine cannot host.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// section is one regenerable artifact: the name selects it on the command
// line, run produces it.
type section struct {
	name string
	run  func(context.Context, *exp.Engine) error
}

// show adapts a figure generator and its formatter into a section body:
// run, then print.
func show[T any](run func(context.Context, *exp.Engine) (T, error), format func(T) string) func(context.Context, *exp.Engine) error {
	return func(ctx context.Context, e *exp.Engine) error {
		v, err := run(ctx, e)
		if err != nil {
			return err
		}
		fmt.Print(format(v))
		return nil
	}
}

// onDemand marks sections that run only when named explicitly, never under
// "all" — "all" regenerates exactly the paper's artifacts.
var onDemand = map[string]bool{"custom": true, "phases": true, "advise": true,
	"whatif": true, "fastcompare": true}

// sections is the single registry the command-line validation and the
// execution loop both read, in output order.
var sections = []section{
	{"fig1", show(exp.Figure1, exp.FormatCurves)},
	{"validation", show(exp.Validation, exp.FormatValidation)},
	{"fig4", show(exp.Figure4, exp.FormatFigure4)},
	{"fig5", show(exp.Figure5, func(bars []stack.Bar) string { return stack.Bars(bars).Text() })},
	{"fig6", show(exp.Figure6, exp.FormatFigure6)},
	{"fig7", show(exp.Figure7, exp.FormatFigure7)},
	{"fig8", show(exp.Figure8, exp.FormatInterference)},
	{"fig9", show(exp.Figure9, exp.FormatInterference)},
	{"hwcost", func(ctx context.Context, e *exp.Engine) error {
		fmt.Print(exp.HardwareCostReport())
		return nil
	}},
	{"ablation", func(ctx context.Context, e *exp.Engine) error {
		rows, err := exp.AblationSampling(ctx, e)
		if err != nil {
			return err
		}
		fmt.Println("ATD sampling factor (hardware cost vs accuracy; exact machine in every mode):")
		fmt.Print(exp.FormatSampling(rows))
		th, err := exp.AblationSpinThreshold(ctx, e)
		if err != nil {
			return err
		}
		fmt.Println("\nTian detector threshold:")
		fmt.Print(exp.FormatThreshold(th))
		qr, err := exp.AblationQuantum(ctx, e)
		if err != nil {
			return err
		}
		fmt.Println("\nengine quantum (fidelity check):")
		fmt.Print(exp.FormatQuantum(qr))
		return nil
	}},
	{"phases", func(ctx context.Context, e *exp.Engine) error {
		series, err := exp.Phases(ctx, e, 16, *intervals)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatPhases(series))
		if *outDir == "" {
			return nil
		}
		for _, ts := range series {
			path := filepath.Join(*outDir, "timeline_"+ts.Label+".svg")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = ts.SVG(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		return nil
	}},
	{"custom", func(ctx context.Context, e *exp.Engine) error {
		if *specPath == "" {
			return errors.New("the custom section needs -spec FILE (a workload spec JSON)")
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec, err := workload.ParseSpec(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *specPath, err)
		}
		fmt.Printf("workload %s (fingerprint %s)\n\n",
			workload.Benchmark{Spec: spec}.FullName(), spec.Fingerprint().Short())
		var cells []exp.Cell
		for _, n := range []int{1, 2, 4, 8, 16} {
			cells = append(cells, exp.Cell{Spec: &spec, Threads: n})
		}
		outs, err := e.Sweep(ctx, cells)
		if err != nil {
			return err
		}
		bars := make([]stack.Bar, len(outs))
		for i, o := range outs {
			bars[i] = stack.Bar{
				Label: fmt.Sprintf("%s x%d", o.Bench.FullName(), o.Stack.N),
				Stack: o.Stack,
			}
		}
		fmt.Print(stack.Bars(bars).Text())
		return nil
	}},
	{"whatif", func(ctx context.Context, e *exp.Engine) error {
		names := workload.Names()
		fmt.Printf("causal what-if engine, %d analogues x%d threads (predicted vs re-simulated gains)\n\n",
			len(names), *whatifThreads)
		fmt.Printf("%-26s %8s %-18s %9s %9s %8s\n",
			"benchmark", "baseline", "top intervention", "gain(est)", "gain(sim)", "error")
		for _, name := range names {
			rep, err := e.WhatIf(ctx, exp.Request{Cell: exp.Cell{Bench: name, Threads: *whatifThreads}}, nil)
			if err != nil {
				return err
			}
			if len(rep.Predictions) == 0 {
				fmt.Printf("%-26s %8.2f %-18s\n", name, rep.BaselineSpeedup, "-")
				continue
			}
			p := rep.Predictions[0]
			fmt.Printf("%-26s %8.2f %-18s %+9.2f %+9.2f %+8.3f\n",
				name, rep.BaselineSpeedup, p.Intervention, p.PredictedGain, p.ActualGain, p.Error)
		}
		return nil
	}},
	{"fastcompare", show(exp.ValidationCompare, exp.FormatValidationCompare)},
	{"advise", func(ctx context.Context, e *exp.Engine) error {
		names := workload.Names()
		fmt.Printf("scaling advisor, sweep 1..%d (powers of two), %d analogues\n\n",
			*maxThreads, len(names))
		fmt.Printf("%-26s %-10s %7s %9s %6s %6s %-10s %s\n",
			"benchmark", "class", "sigma", "kappa", "n*", "agree", "bottleneck", "top recommendation")
		for _, name := range names {
			a, err := e.Advise(ctx, exp.Request{Cell: exp.Cell{Bench: name}}, *maxThreads)
			if err != nil {
				return err
			}
			nstar := "-"
			if a.NStar > 0 {
				nstar = fmt.Sprintf("%.1f", a.NStar)
			}
			agree := "yes"
			if !a.SigmaAgrees {
				agree = "NO"
			}
			bottleneck, top := "-", "-"
			if a.Bottleneck != "" {
				bottleneck = a.Bottleneck
			}
			if len(a.Recommendations) > 0 {
				r := a.Recommendations[0]
				if top = r.Field; top == "" {
					top = r.Action
				}
			}
			fmt.Printf("%-26s %-10s %7.4f %9.6f %6s %6s %-10s %s\n",
				name, a.Class, a.USL.Sigma, a.USL.Kappa, nstar, agree, bottleneck, top)
		}
		return nil
	}},
}

// specPath feeds the custom section; intervals and outDir feed the phases
// section; maxThreads feeds the advise section; whatifThreads the whatif
// section. They are flags so they parse alongside the shared
// -workers/-timeout/-q options.
var (
	specPath      = flag.String("spec", "", "workload spec JSON for the custom section")
	intervals     = flag.Int("intervals", 32, "interval count for the phases section")
	outDir        = flag.String("outdir", "", "also write phases timelines as SVG files into DIR")
	maxThreads    = flag.Int("max-threads", 16, "sweep top for the advise section")
	whatifThreads = flag.Int("threads", 16, "thread count for the whatif section")
)

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "parallel simulation workers")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	quiet := flag.Bool("q", false, "suppress the progress line")
	modeFlag := flag.String("mode", "exact", "simulation fidelity: exact (byte-identical) or fast (sampled, several times faster, error-bounded)")
	flag.Parse()
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
		// flag.Parse stops at the first positional argument; accept flags
		// after the section name too (`experiments all -workers=8`).
		flag.CommandLine.Parse(flag.Args()[1:])
		if flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
			os.Exit(2)
		}
	}
	if which != "all" {
		known := false
		names := make([]string, len(sections))
		for i, s := range sections {
			names[i] = s.name
			known = known || s.name == which
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown section %q (want all or one of %v)\n", which, names)
			os.Exit(2)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []exp.Option{exp.WithWorkers(*workers)}
	if !*quiet {
		opts = append(opts, exp.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcells: %d/%d ", done, total)
		}))
	}
	mode, err := sim.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	e := exp.NewEngine(sim.Default().WithMode(mode), opts...)

	failed := 0
	for _, s := range sections {
		if which != "all" && which != s.name {
			continue
		}
		if which == "all" && onDemand[s.name] {
			continue
		}
		t0 := time.Now()
		fmt.Printf("==== %s ====\n", s.name)
		err := s.run(ctx, e)
		if !*quiet {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		if err != nil {
			// Keep going: later sections may still complete, and partial
			// results beat losing the figures already printed.
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
			fmt.Printf("(failed)\n\n")
			continue
		}
		fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", s.name, time.Since(t0).Seconds())
		fmt.Println()
	}

	if st := e.Stats(); !*quiet {
		fmt.Fprintf(os.Stderr, "engine: %d cell + %d sequential simulations, %d cell + %d sequential memo hits\n",
			st.CellRuns, st.SeqRuns, st.CellHits, st.SeqHits)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d section(s) failed\n", failed)
		os.Exit(1)
	}
}
