// Command speedup-stack measures and prints the speedup stack of one
// benchmark analogue or of a custom workload spec.
//
// Usage:
//
//	speedup-stack -bench cholesky -threads 16
//	speedup-stack -bench radix_splash2 -threads 8 -format svg > radix.svg
//	speedup-stack -bench bodytrack -threads 16 -intervals 32 -format svg > phases.svg
//	speedup-stack -spec mykernel.json -threads 16
//	speedup-stack -bench ferret -advise [-max-threads 16] [-format svg]
//	speedup-stack -bench cholesky -threads 16 -whatif [-interventions halve_lock_hold,double_llc]
//	speedup-stack -bench cholesky -threads 16 -mode fast
//	speedup-stack -bench cholesky -threads 16 -record cholesky16.trace
//	speedup-stack -trace cholesky16.trace [-format svg]
//	speedup-stack -list
//
// -spec FILE analyzes a bring-your-own-benchmark workload spec (the JSON
// form of a workload description; see the README's "Custom workloads"
// section) instead of a registered analogue, and takes precedence over
// -bench. -format selects the report encoding: text (ASCII bars, component
// table and top bottlenecks), json, csv, or svg (a standalone chart).
//
// -intervals N switches to the time-resolved report: the run is divided
// into N equal slices of its committed trace operations and each slice gets
// its own component breakdown (the slices sum exactly to the aggregate).
// text prints the interval table, json/csv the exact per-interval cycles,
// and svg a stacked timeline instead of the aggregate bar chart.
//
// -advise switches to the scaling advisor: the workload is swept from 1 to
// -max-threads threads (powers of two), Amdahl and USL curves are fitted,
// and the report carries the classification, the diminishing-returns point
// N*, the serial-fraction cross-check against the stack, and ranked
// spec-field recommendations. svg draws the measured sweep with both
// fitted curves overlaid.
//
// -mode fast runs on the sampled fast-mode machine (README, "Fast mode:
// sampled simulation"); the default, exact, is byte-identical run to run.
//
// -record FILE runs the workload once and writes the binary op trace of that
// run to FILE: every operation every thread issued, plus the run's machine
// registrations — the compact versioned format specified in internal/trace.
// -trace FILE replays a recorded trace instead of generating a workload and
// prints its speedup stack at the trace's recorded thread count; in exact
// mode the replay reproduces the recorded run's result byte-identically. The
// same file uploads to speedupd's POST /v1/traces/analyze.
//
// -whatif switches to the causal what-if engine: each applicable catalog
// intervention (halve the lock hold time, remove imbalance, double the LLC,
// halve the memory latency) is predicted by re-evaluating the estimator
// with its stack components scaled, validated by re-simulating the mutated
// workload or machine, and ranked by predicted gain. -interventions
// restricts the run to a comma-separated subset of catalog IDs; svg draws
// the baseline and per-intervention stacks as one chart.
//
// Flag combinations that would silently drop a flag are usage errors (exit
// status 2): a negative -intervals, -interventions without -whatif,
// -max-threads without -advise, -threads with -trace or -advise (the trace
// and the sweep set the thread count), and -record or -trace next to another
// report.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	speedupstack "repro"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, builds the one Request the
// flags describe, makes the one library call the selected report needs,
// encodes its document and returns the exit status (2 for a usage error, 1
// for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("speedup-stack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "cholesky_splash2", "benchmark (name or name_suite)")
	spec := fs.String("spec", "", "workload spec JSON file (overrides -bench)")
	threads := fs.Int("threads", speedupstack.DefaultThreads, "thread count (= core count)")
	format := fs.String("format", "text", "output format: text|json|csv|svg")
	intervals := fs.Int("intervals", 0, "time-resolve the stack into N intervals (0 = aggregate only)")
	advise := fs.Bool("advise", false, "run the scaling advisor (Amdahl/USL fits and recommendations)")
	maxThreads := fs.Int("max-threads", speedupstack.DefaultThreads, "sweep top for -advise")
	whatIf := fs.Bool("whatif", false, "run the causal what-if engine (predicted vs re-simulated intervention gains)")
	interventions := fs.String("interventions", "", "comma-separated intervention IDs for -whatif (empty = full catalog)")
	mode := fs.String("mode", "exact", "simulation fidelity: exact (byte-identical) or fast (sampled, several times faster, error-bounded)")
	record := fs.String("record", "", "record the run's binary op trace to FILE instead of reporting")
	tracePath := fs.String("trace", "", "replay a recorded trace FILE instead of generating a workload (overrides -bench/-spec)")
	list := fs.Bool("list", false, "list available benchmarks and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// exit reports a usage error (status 2) or a failed run (status 1).
	exit := func(status int, msg any) int {
		fmt.Fprintln(stderr, msg)
		return status
	}

	if *list {
		for _, n := range speedupstack.Benchmarks() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	f, err := speedupstack.ParseFormat(*format)
	if err != nil {
		return exit(2, err)
	}
	m, err := sim.ParseMode(*mode)
	if err != nil {
		return exit(2, err)
	}
	req := speedupstack.Request{Bench: *bench, Threads: *threads, Fast: m == sim.ModeFast}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	analysis := *whatIf || *advise || *intervals > 0
	switch {
	case *record != "" && (*tracePath != "" || analysis):
		return exit(2, "-record captures one aggregate run; drop -trace/-advise/-whatif/-intervals")
	case *tracePath != "" && analysis:
		// A trace replays at its recorded thread count: one aggregate stack.
		return exit(2, "-trace replays the recorded run's aggregate stack; drop -advise/-whatif/-intervals")
	case *intervals < 0:
		return exit(2, fmt.Sprintf("-intervals must not be negative, got %d", *intervals))
	case given["interventions"] && !*whatIf:
		return exit(2, "-interventions selects what-if interventions; add -whatif")
	case given["max-threads"] && !*advise:
		return exit(2, "-max-threads is the advisor's sweep top; add -advise")
	case given["threads"] && (*tracePath != "" || *advise):
		return exit(2, "-trace and -advise set the thread count themselves; drop -threads")
	}

	// The workload: a recorded trace (at its recorded thread count), a spec
	// file, or the registered -bench.
	var w speedupstack.Workload
	switch {
	case *tracePath != "":
		if w, err = load(*tracePath, speedupstack.LoadTrace); err == nil {
			req.Bench, req.Workload, req.Threads = "", &w, w.TraceThreads()
		}
	case *spec != "":
		if w, err = load(*spec, parseSpec); err == nil {
			req.Bench, req.Workload = "", &w
		}
	}
	if err != nil {
		return exit(1, err)
	}

	if *record != "" {
		if err := recordTrace(req, *record); err != nil {
			return exit(1, err)
		}
		return 0
	}
	// Pick the analysis, encode once; the aggregate text report also names
	// the top bottlenecks.
	ctx := context.Background()
	var doc speedupstack.Document
	trailer := ""
	switch {
	case *whatIf:
		var ids []string
		if *interventions != "" {
			ids = strings.Split(*interventions, ",")
		}
		doc, err = speedupstack.WhatIf(ctx, req, ids...)
	case *advise:
		doc, err = speedupstack.Advise(ctx, req, *maxThreads)
	case *intervals > 0:
		doc, err = speedupstack.MeasureIntervals(ctx, req, *intervals)
	default:
		var res speedupstack.Result
		if res, err = speedupstack.Measure(ctx, req); err == nil && f == speedupstack.FormatText {
			trailer = fmt.Sprintf("\ntop bottlenecks: %v\n", speedupstack.TopBottlenecks(res, 3))
		}
		doc = speedupstack.Stacks(res)
	}
	if err == nil {
		err = speedupstack.Encode(stdout, f, doc)
	}
	if err == nil {
		_, err = io.WriteString(stdout, trailer)
	}
	if err != nil {
		return exit(1, err)
	}
	return 0
}

// recordTrace captures one run of the request as a binary op trace file,
// written only once the recording succeeded.
func recordTrace(req speedupstack.Request, path string) error {
	var buf bytes.Buffer
	if err := speedupstack.RecordTrace(&buf, req); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}

// load opens the workload file at path — a spec or a recorded trace — and
// reads it with parse, naming the file in a parse error.
func load(path string, parse func(io.Reader) (speedupstack.Workload, error)) (speedupstack.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return speedupstack.Workload{}, err
	}
	defer f.Close()
	w, err := parse(f)
	if err != nil {
		return speedupstack.Workload{}, fmt.Errorf("%s: %w", path, err)
	}
	return w, nil
}

// parseSpec reads a whole workload spec file and parses it.
func parseSpec(r io.Reader) (speedupstack.Workload, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return speedupstack.Workload{}, err
	}
	return speedupstack.ParseWorkload(data)
}
