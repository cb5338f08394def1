// Command experiments regenerates the paper's evaluation (Figures 1 and
// 4–9, the Section 6 validation table, the Section 4.7 hardware budget and
// the ablations) on the simulated 16-core machine, and on demand the
// workload tuning table with each analogue's ground truth (calibrate).
//
// Usage:
//
//	experiments [flags] [SECTION|all]
//	experiments custom -spec mykernel.json
//	experiments phases [-intervals 32] [-outdir DIR]
//	experiments advise [-max-threads 16]
//	experiments whatif [-threads 16]
//	experiments calibrate [-threads 16]
//	experiments all -mode fast
//
// The sections, their order and which of them "all" runs are the registry
// exp.Artifacts; this command parses flags, reads the -spec file, writes the
// -outdir SVGs and prints each section framed by exp.Frame. One sweep engine
// serves every section over -workers workers; stdout is byte-identical for
// any worker count, and timing and progress go to stderr. -mode fast runs
// the sampled machine (README, "Fast mode: sampled simulation").
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// The section inputs: -spec and -outdir here, the rest parse into params.
var (
	specPath = flag.String("spec", "", "workload spec JSON for the custom section")
	outDir   = flag.String("outdir", "", "also write phases timelines as SVG files into DIR")
	params   = exp.DefaultParams
)

// readSpec loads the custom section's workload from -spec.
func readSpec() (workload.Spec, error) {
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return workload.Spec{}, err
	}
	spec, err := workload.ParseSpec(data)
	if err != nil {
		err = fmt.Errorf("%s: %w", *specPath, err)
	}
	return spec, err
}

// writeTimelines writes the phases section's series into -outdir.
func writeTimelines(series []stack.TimeSeries) error {
	for _, ts := range series {
		var svg bytes.Buffer
		if err := ts.SVG(&svg); err != nil {
			return err
		}
		path := filepath.Join(*outDir, "timeline_"+ts.Label+".svg")
		if err := os.WriteFile(path, svg.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "parallel simulation workers")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	quiet := flag.Bool("q", false, "suppress the progress line")
	modeFlag := flag.String("mode", "exact", "simulation fidelity: exact (byte-identical) or fast (sampled, several times faster, error-bounded)")
	flag.IntVar(&params.Intervals, "intervals", params.Intervals, "interval count for the phases section")
	flag.IntVar(&params.MaxThreads, "max-threads", params.MaxThreads, "sweep top for the advise section")
	flag.IntVar(&params.Threads, "threads", params.Threads, "thread count for the whatif and calibrate sections")
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
	var names []string
	for _, a := range exp.Artifacts {
		names = append(names, a.Name)
	}
	if which != "all" && !slices.Contains(names, which) {
		fmt.Fprintf(os.Stderr, "unknown section %q (want all or one of %v)\n", which, names)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var e *exp.Engine
	opts := []exp.Option{exp.WithWorkers(*workers)}
	if !*quiet {
		// The progress line is the engine's own count, redrawn as each
		// simulation starts.
		opts = append(opts, exp.WithRunHook(func(string, string, int, int) {
			st := e.Stats()
			fmt.Fprintf(os.Stderr, "\rcells: %d/%d ", st.CellsDone, st.CellsDeclared)
		}))
	}
	mode, err := sim.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	e = exp.NewEngine(sim.Default().WithMode(mode), opts...)

	if *specPath != "" {
		params.Spec = readSpec
	}
	if *outDir != "" {
		params.Timelines = writeTimelines
	}
	failed := 0
	for _, a := range exp.Artifacts {
		if which != a.Name && (which != "all" || a.OnDemand) {
			continue
		}
		t0 := time.Now()
		body, err := a.Run(ctx, e, params)
		if !*quiet {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		if err != nil {
			// Keep going: later sections may still complete, and partial
			// results beat losing the figures already printed.
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			body = "(failed)\n"
		} else {
			fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", a.Name, time.Since(t0).Seconds())
		}
		fmt.Print(exp.Frame(a.Name, body))
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
