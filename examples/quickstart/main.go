// Quickstart: measure one benchmark's speedup stack and print it.
//
// This is the library's 30-second tour: pick a benchmark analogue, run it
// at 16 threads against its single-threaded reference, and look at the
// stack to see *why* it does not scale 16x.
package main

import (
	"context"
	"fmt"
	"log"

	speedupstack "repro"
)

func main() {
	fmt.Println("available benchmarks:")
	for i, name := range speedupstack.Benchmarks() {
		fmt.Printf("  %2d. %s\n", i+1, name)
	}
	fmt.Println()

	for _, bench := range []string{"blackscholes_parsec_medium", "facesim_parsec_medium", "cholesky_splash2"} {
		res, err := speedupstack.Measure(context.Background(),
			speedupstack.Request{Bench: bench, Threads: 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(speedupstack.Render(res))
		fmt.Printf("actual speedup %.2fx, estimated %.2fx, top bottlenecks: %v\n\n",
			res.Stack.ActualSpeedup, res.Stack.Estimated(),
			speedupstack.TopBottlenecks(res, 3))
	}

	hw := speedupstack.HardwareCost()
	fmt.Printf("accounting hardware: %d B/core (%d B interference + %d B spin table)\n",
		hw.PerCoreBytes(), hw.InterferenceBytes(), hw.SpinTableBytes)
}
