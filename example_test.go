package speedupstack_test

import (
	"context"
	"fmt"

	speedupstack "repro"
)

// ExampleMeasure runs one benchmark analogue and asks the accounting
// hardware what limits its scaling. The simulator is deterministic, so the
// numbers are stable across runs and machines.
func ExampleMeasure() {
	r, err := speedupstack.Measure(context.Background(),
		speedupstack.Request{Bench: "cholesky_splash2", Threads: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("estimated %.2fx, measured %.2fx on %d cores\n",
		r.Stack.Estimated(), r.Stack.ActualSpeedup, r.Threads)
	fmt.Println("bottlenecks:", speedupstack.TopBottlenecks(r, 2))
	// Output:
	// estimated 6.61x, measured 4.38x on 16 cores
	// bottlenecks: [spinning memory]
}

// ExampleMeasureAll measures a (benchmark, thread-count) grid in one batch:
// shared work is deduplicated (one sequential reference per benchmark) and
// the simulations fan out over all CPUs.
func ExampleMeasureAll() {
	var grid []speedupstack.Request
	for _, bench := range []string{"radix_splash2", "fft_splash2"} {
		for _, threads := range []int{4, 8} {
			grid = append(grid, speedupstack.Request{Bench: bench, Threads: threads})
		}
	}
	rs, err := speedupstack.MeasureAll(context.Background(), grid)
	if err != nil {
		panic(err)
	}
	for _, r := range rs {
		fmt.Printf("%-14s x%-2d actual %5.2f\n",
			r.Benchmark, r.Threads, r.Stack.ActualSpeedup)
	}
	// Output:
	// radix_splash2  x4  actual  3.41
	// radix_splash2  x8  actual  6.35
	// fft_splash2    x4  actual  3.17
	// fft_splash2    x8  actual  5.75
}

// ExampleRender draws a measured stack as ASCII art; Encode produces the
// same report as JSON, CSV or a standalone SVG chart.
func ExampleRender() {
	r, err := speedupstack.Measure(context.Background(),
		speedupstack.Request{Bench: "cholesky_splash2", Threads: 16})
	if err != nil {
		panic(err)
	}
	fmt.Print(speedupstack.Render(r))
	// Output:
	// cholesky_splash2             N=16  est= 6.61 act= 4.38 |#######################+++mmmmmmmmmmmmmmssssssssssssssyyyyyyyyy |
	// legend: #=base speedup  +=positive LLC  .=net negative LLC  m=memory  s=spinning  y=yielding  i=imbalance
}

// ExampleMeasureIntervals time-resolves a phase-structured run: each
// interval carries exact integer-cycle components that sum to the
// aggregate stack, so phase-local bottlenecks (here: barrier convergence
// at the end of each of bodytrack's six phases) become visible.
func ExampleMeasureIntervals() {
	ts, err := speedupstack.MeasureIntervals(context.Background(),
		speedupstack.Request{Bench: "bodytrack_parsec_small", Threads: 16}, 6)
	if err != nil {
		panic(err)
	}
	var sum speedupstack.IntervalComponents
	for _, iv := range ts.Intervals {
		sum = sum.Add(iv.Components)
	}
	fmt.Printf("%d intervals over %d ops; exact sum: %v\n",
		len(ts.Intervals), ts.TotalOps, sum == ts.Aggregate)
	// Output:
	// 6 intervals over 411196 ops; exact sum: true
}

// ExampleFormats lists every report format Encode writes; each name is
// what ParseFormat, speedup-stack's -format and speedupd's ?format= take.
func ExampleFormats() {
	for _, f := range speedupstack.Formats() {
		if _, err := speedupstack.ParseFormat(string(f)); err != nil {
			panic(err)
		}
		fmt.Println(f)
	}
	// Output:
	// text
	// json
	// ndjson
	// csv
	// svg
}

// ExampleInterventions lists the what-if catalog: each ID selects that
// intervention in WhatIf, and Component names the stack component whose
// cost it scales.
func ExampleInterventions() {
	for _, iv := range speedupstack.Interventions() {
		fmt.Printf("%-17s %-9s %s\n", iv.ID, iv.Component, iv.Summary)
	}
	// Output:
	// halve_lock_hold   spinning  halve the lock hold time (cs_instr / dispatch_instr)
	// remove_imbalance  yielding  remove work imbalance (balance the per-thread shares)
	// double_llc        cache     double the shared LLC capacity
	// halve_mem_latency memory    halve the DRAM latency and bus occupancy
}
