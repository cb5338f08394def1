// Custom workload: build your own benchmark analogue and measure its
// speedup stack at several thread counts.
//
// The workload below is a lock-heavy data-parallel kernel with a skewed
// work distribution — the kind of program whose speedup curve alone would
// not reveal whether synchronization, imbalance or the memory system is at
// fault. The speedup stack separates them.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	speedupstack "repro"
)

func main() {
	spec := speedupstack.Workload{
		Name:  "mykernel",
		Suite: "custom",
		Kind:  speedupstack.WorkloadDataParallel,

		ArrayBytes:     6 << 20, // 6 MB working set, thrashes a 2 MB LLC
		SweepsPerPhase: 2,       // temporal reuse -> LLC interference visible
		Phases:         2,
		InstrPerAccess: 900,

		StoreFrac:            0.2,
		EffectiveParallelism: 7, // skewed work: ~7 useful threads

		CSPerThreadPerPhase: 50, // critical sections on 4 locks
		CSInstr:             800,
		NumLocks:            4,

		OverheadFrac: 0.05,
		Seed:         42,
	}

	var reqs []speedupstack.Request
	for _, threads := range []int{2, 4, 8, 16} {
		reqs = append(reqs, speedupstack.Request{Workload: &spec, Threads: threads})
	}
	results, err := speedupstack.MeasureAll(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("threads=%2d  actual=%5.2fx  estimated=%5.2fx  bottlenecks=%v\n",
			r.Threads, r.Stack.ActualSpeedup, r.Stack.Estimated(), speedupstack.TopBottlenecks(r, 3))
	}
	fmt.Println()
	if err := speedupstack.Encode(os.Stdout, speedupstack.FormatText, speedupstack.Stacks(results...)); err != nil {
		log.Fatal(err)
	}
}
