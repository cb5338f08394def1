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
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// readSpec loads the custom section's workload from the spec file at path.
func readSpec(path string) (workload.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return workload.Spec{}, err
	}
	spec, err := workload.ParseSpec(data)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return spec, err
}

// writeTimelines writes the phases section's series into dir, one SVG file
// each, and names every file it writes on log.
func writeTimelines(dir string, series []stack.TimeSeries, log io.Writer) error {
	for _, ts := range series {
		var svg bytes.Buffer
		if err := ts.SVG(&svg); err != nil {
			return err
		}
		path := filepath.Join(dir, "timeline_"+ts.Label+".svg")
		if err := os.WriteFile(path, svg.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote %s\n", path)
	}
	return nil
}

// run is the whole command: it parses args, runs the selected sections on
// one engine, prints them on stdout and returns the exit status (2 for a
// usage error, 1 when a section failed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := exp.DefaultParams
	specPath := fs.String("spec", "", "workload spec JSON for the custom section")
	outDir := fs.String("outdir", "", "also write phases timelines as SVG files into DIR")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel simulation workers")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	quiet := fs.Bool("q", false, "suppress the progress line")
	modeFlag := fs.String("mode", "exact", "simulation fidelity: exact (byte-identical) or fast (sampled, several times faster, error-bounded)")
	fs.IntVar(&params.Intervals, "intervals", params.Intervals, "interval count for the phases section")
	fs.IntVar(&params.MaxThreads, "max-threads", params.MaxThreads, "sweep top for the advise section")
	fs.IntVar(&params.Threads, "threads", params.Threads, "thread count for the whatif and calibrate sections")
	// Parsing stops at the first positional argument, the section; flags
	// after it are accepted too (`experiments all -workers=8`).
	err := fs.Parse(args)
	which := "all"
	if err == nil && fs.NArg() > 0 {
		which = fs.Arg(0)
		err = fs.Parse(fs.Args()[1:])
	}
	var names []string
	for _, a := range exp.Artifacts {
		names = append(names, a.Name)
	}
	mode, modeErr := sim.ParseMode(*modeFlag)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "unexpected arguments %v\n", fs.Args())
		return 2
	case which != "all" && !slices.Contains(names, which):
		fmt.Fprintf(stderr, "unknown section %q (want all or one of %v)\n", which, names)
		return 2
	case modeErr != nil:
		fmt.Fprintln(stderr, modeErr)
		return 2
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
			fmt.Fprintf(stderr, "\rcells: %d/%d ", st.CellsDone, st.CellsDeclared)
		}))
	}
	e = exp.NewEngine(sim.Default().WithMode(mode), opts...)

	if *specPath != "" {
		params.Spec = func() (workload.Spec, error) { return readSpec(*specPath) }
	}
	if *outDir != "" {
		params.Timelines = func(series []stack.TimeSeries) error { return writeTimelines(*outDir, series, stderr) }
	}
	failed := 0
	for _, a := range exp.Artifacts {
		if which != a.Name && (which != "all" || a.OnDemand) {
			continue
		}
		t0 := time.Now()
		body, err := a.Run(ctx, e, params)
		if !*quiet {
			fmt.Fprint(stderr, "\r\033[K")
		}
		if err != nil {
			// Keep going: later sections may still complete, and partial
			// results beat losing the figures already printed.
			failed++
			fmt.Fprintf(stderr, "%s: %v\n", a.Name, err)
			body = "(failed)\n"
		} else {
			fmt.Fprintf(stderr, "%s done in %.1fs\n", a.Name, time.Since(t0).Seconds())
		}
		fmt.Fprint(stdout, exp.Frame(a.Name, body))
	}

	if st := e.Stats(); !*quiet {
		fmt.Fprintf(stderr, "engine: %d cell + %d sequential simulations, %d cell + %d sequential memo hits\n",
			st.CellRuns, st.SeqRuns, st.CellHits, st.SeqHits)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d section(s) failed\n", failed)
		return 1
	}
	return 0
}
