// Package speedupstack reproduces "Speedup Stacks: Identifying Scaling
// Bottlenecks in Multi-Threaded Applications" (Eyerman, Du Bois, Eeckhout,
// ISPASS 2012) as a Go library.
//
// A speedup stack decomposes the gap between the ideal speedup N and the
// speedup a multi-threaded program actually achieves on an N-core machine
// into additive scaling delimiters: negative and positive last-level-cache
// interference, memory-subsystem interference, spinning, yielding and load
// imbalance. The library contains the paper's hardware cycle-accounting
// architecture (sampled auxiliary tag directories, open-row arrays, a
// Tian-style spin detector, OS yield bookkeeping), a deterministic
// cycle-level CMP simulator it runs on, 28 calibrated benchmark analogues,
// and the harness that regenerates every figure of the paper's evaluation.
//
// Every measurement takes a context and one Request — a registered
// benchmark analogue by name, at a thread count:
//
//	r, err := speedupstack.Measure(ctx, speedupstack.Request{Bench: "cholesky", Threads: 16})
//	if err != nil { ... }
//	fmt.Println(speedupstack.Render(r))
//
// Batch measurements go through MeasureAll, which deduplicates shared
// work (one sequential reference per workload) and runs the batch on all
// CPUs via the exp sweep engine.
//
// Custom workloads are first-class: build a Workload (or parse one from
// JSON with ParseWorkload) and put it in the Request instead of a name — it
// flows through the same engine, dedup and caching as the registered
// analogues, keyed by the spec's canonical fingerprint:
//
//	w, err := speedupstack.ParseWorkload(jsonBytes)
//	r, err := speedupstack.Measure(ctx, speedupstack.Request{Workload: &w, Threads: 16})
//
// MeasureIntervals, Advise, WhatIf and RecordTrace take the same Request.
package speedupstack

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Stack is the speedup stack of one measured run: the estimate produced by
// the accounting hardware plus the measured actual speedup.
type Stack = core.Stack

// Components are the cycle-valued stack components.
type Components = core.Components

// Result couples a stack with the benchmark identity it came from. The
// run's thread count is its Stack's, Stack.N.
type Result struct {
	Benchmark string
	Stack     Stack
}

// Benchmarks lists the registered benchmark analogues (name_suite form).
func Benchmarks() []string { return workload.Names() }

// Workload is a behavioural workload description — the serializable
// bring-your-own-benchmark input. Construct one in Go or parse it from JSON
// with ParseWorkload; its methods carry the contract: Validate (actionable
// consistency checks), Canonical (inert fields zeroed) and Fingerprint (the
// stable, name-independent identity every cache layer keys on).
type Workload = workload.Spec

// WorkloadStage describes one pipeline stage of a Workload.
type WorkloadStage = workload.StageSpec

// WorkloadKind selects a Workload's structural family.
type WorkloadKind = workload.Kind

// The workload families: barrier-phased data-parallel, lock-dispensed
// task-queue, and queue-connected pipeline.
const (
	WorkloadDataParallel = workload.KindDataParallel
	WorkloadTaskQueue    = workload.KindTaskQueue
	WorkloadPipeline     = workload.KindPipeline
)

// WorkloadFingerprint is the canonical identity of a Workload: equal
// fingerprints mean behaviourally identical workloads, whatever their names.
type WorkloadFingerprint = workload.Fingerprint

// ParseWorkload decodes, validates and canonicalizes a JSON workload spec —
// the same format the speedup-stack CLI accepts via -spec and the speedupd
// service accepts inline. Unknown fields are errors.
func ParseWorkload(data []byte) (Workload, error) { return workload.ParseSpec(data) }

// Request names one measurement: a workload at a thread count on the
// paper's default 16-core-class machine (threads = cores). It is the one
// input of every measuring entry point.
type Request struct {
	// Bench names a registered benchmark analogue (name or name_suite form;
	// see Benchmarks). Exactly one of Bench and Workload must be set.
	Bench string
	// Workload is a custom workload, which need not — and usually does not —
	// exist in the registry. One identical to a registered analogue (or to
	// another Workload under a different name) is the same simulation.
	Workload *Workload
	// Threads is the thread count.
	Threads int
	// Fast selects sampled fast mode (sim.ModeFast; README, "Fast mode:
	// sampled simulation", says which analyses serve it): several times
	// faster and deterministic, but not byte-identical to exact mode.
	Fast bool
}

// request is the one Request → exp.Request step behind every entry point.
// It judges nothing: it keeps the bench name, so the engine's name index
// supplies the fingerprint, and binds the sampled machine for Fast. The
// engine's own checks are the one judge of every field.
func (r Request) request() exp.Request {
	req := exp.Request{Cell: exp.Cell{Bench: r.Bench, Spec: r.Workload, Threads: r.Threads}}
	if r.Fast {
		cfg := sim.Default().WithMode(sim.ModeFast)
		req.Config = &cfg
	}
	return req
}

// newEngine returns the default-machine engine, on exp's default worker
// pool, that every entry point runs on.
func newEngine() *exp.Engine {
	return exp.NewEngine(sim.Default())
}

// Measure runs the request's workload plus its single-threaded reference
// and returns the speedup stack with the actual speedup attached.
func Measure(ctx context.Context, r Request) (Result, error) {
	rs, err := MeasureAll(ctx, []Request{r})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// MeasureAll measures a batch of requests on one engine, deduplicating
// shared work (one sequential reference per workload; two identical
// workloads under different names cost one simulation) and fanning the
// simulations out over all CPUs. Results come back in request order. A
// malformed request fails the batch before anything runs; canceling ctx
// aborts the remaining simulations promptly.
func MeasureAll(ctx context.Context, rs []Request) ([]Result, error) {
	reqs := make([]exp.Request, len(rs))
	for i, r := range rs {
		reqs[i] = r.request()
	}
	results := make([]Result, len(reqs))
	err := newEngine().Do(ctx, reqs, func(i int, out exp.Outcome) {
		results[i] = Result{Benchmark: out.Bench.FullName(), Stack: out.Stack}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// StackRow is one speedup stack in tabular wire form: the JSON/CSV row the
// library encoders and the speedupd service emit (per-component values next
// to the actual and estimated speedups). The client package decodes service
// responses into it.
type StackRow = stack.ReportRow

// TimeSeriesReport is the wire form of a time-resolved stack: run metadata,
// the aggregate exact-cycle decomposition, and one entry per interval.
type TimeSeriesReport = stack.TimeSeriesReport

// TimeSeries is the time-resolved form of one speedup stack: the aggregate
// decomposition plus per-interval component breakdowns whose integer-cycle
// values sum exactly to the aggregate. The run's thread count and execution
// time are its aggregate Stack's, Stack.N and Stack.Tp. Produce one with
// MeasureIntervals;
// it is a Document, so Encode renders it: FormatText is a fixed-width
// interval table, FormatJSON one report object (metadata, aggregate, exact
// per-interval cycles), FormatCSV one record per interval plus a total
// record, and FormatSVG a standalone stacked-timeline chart.
type TimeSeries = stack.TimeSeries

// TimeSeriesInterval is one time slice of a TimeSeries, and one row of a
// TimeSeriesReport's Intervals.
type TimeSeriesInterval = stack.Interval

// IntervalComponents are the exact integer-cycle stack components of one
// TimeSeries interval (or of its aggregate).
type IntervalComponents = core.IntComponents

// What speedupd and speedup-stack take when a request names none — the
// paper's 16-thread machine (thread count and advisor sweep top) and an
// interval count — and MaxIntervals, the interval bound every door shares.
const (
	DefaultThreads   = exp.DefaultThreads
	DefaultIntervals = exp.DefaultIntervals
	MaxIntervals     = exp.MaxIntervals
)

// MeasureIntervals is Measure with time resolution: it divides the run into
// intervals equal slices of its committed trace operations and returns the
// per-interval speedup-stack decomposition next to the aggregate. Interval
// accounting never perturbs results (the simulator only snapshots
// counters).
func MeasureIntervals(ctx context.Context, r Request, intervals int) (TimeSeries, error) {
	out, err := newEngine().MeasureIntervals(ctx, r.request(), intervals)
	if err != nil {
		return TimeSeries{}, err
	}
	return out.Series, nil
}

// Render draws a result as an ASCII speedup stack with a legend.
func Render(r Result) string {
	return stack.Render([]stack.Bar{{Label: r.Benchmark, Stack: r.Stack}}, 64)
}

// Format selects a report encoding for Encode. The speedup-stack CLI
// (-format) and the speedupd HTTP service (?format=) understand the same
// names.
type Format = stack.Format

// The supported report formats.
const (
	FormatText = stack.FormatText
	FormatJSON = stack.FormatJSON
	FormatCSV  = stack.FormatCSV
	FormatSVG  = stack.FormatSVG
)

// Formats lists the supported report formats.
func Formats() []Format { return stack.Formats() }

// ParseFormat resolves a format name case-insensitively.
func ParseFormat(s string) (Format, error) { return stack.ParseFormat(s) }

// Document is one analysis result in every report form. Stacks (of
// Results), TimeSeries, Advice and WhatIfReport are all Documents; Encode
// writes any of them.
type Document = stack.Document

// Stacks is the aggregate report of one or more results: FormatText is the
// ASCII rendering plus the numeric table, FormatJSON an indented JSON
// array, FormatCSV a header plus one record per result, and FormatSVG a
// standalone SVG chart.
func Stacks(rs ...Result) Document { return stack.Bars(bars(rs)) }

// Encode writes a document to w in the requested format.
func Encode(w io.Writer, f Format, d Document) error { return stack.EncodeDocument(w, f, d) }

func bars(rs []Result) []stack.Bar {
	out := make([]stack.Bar, len(rs))
	for i, r := range rs {
		out[i] = stack.Bar{Label: r.Benchmark, Stack: r.Stack}
	}
	return out
}

// Table renders a numeric component table for one or more results.
func Table(rs ...Result) string {
	return stack.Table(bars(rs))
}

// TopBottlenecks names the largest scaling delimiters of a result, largest
// first, using the paper's component vocabulary (cache, memory, spinning,
// yielding, imbalance).
func TopBottlenecks(r Result, k int) []string {
	return stack.TopComponents(r.Stack, k)
}

// HardwareCost returns the per-core byte cost of the accounting hardware
// with the paper's geometry (≈1.1 KB per core, Section 4.7).
func HardwareCost() core.HardwareBudget {
	return core.Cost(core.PaperCostParams())
}
