package speedupstack

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestIntervalSumInvariant pins the tentpole guarantee of time-resolved
// stacks across the whole registry, on the exact and on the fast machine:
// for every benchmark analogue at 1, 4 and 16 threads, the per-interval
// integer components sum *exactly* (int64 equality, no tolerance) to the
// series' aggregate, the intervals partition the run's ops and cycles, and
// the integer aggregate tracks the float estimator within its documented
// rounding bound.
func TestIntervalSumInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-registry interval sweep is not a -short test")
	}
	for _, mode := range []sim.Mode{sim.ModeExact, sim.ModeFast} {
		t.Run(mode.String(), func(t *testing.T) { checkIntervalSums(t, sharedEngines()[mode]) })
	}
}

// checkIntervalSums is TestIntervalSumInvariant on one machine. The engine
// is shared, so the interval runs are counted as a delta; no other test asks
// for 8 intervals, so every one of them simulates here.
func checkIntervalSums(t *testing.T, e *exp.Engine) {
	const intervals = 8
	ctx := context.Background()
	before := e.Stats().IntervalRuns

	type cellID struct {
		bench   string
		threads int
	}
	var cells []cellID
	for _, name := range workload.Names() {
		for _, n := range []int{1, 4, 16} {
			cells = append(cells, cellID{name, n})
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for _, c := range cells {
		wg.Add(1)
		go func(c cellID) {
			defer wg.Done()
			req := exp.Request{Cell: exp.Cell{Bench: c.bench, Threads: c.threads}}
			out, err := e.MeasureIntervals(ctx, req, intervals)
			if err != nil {
				fail("%s x%d: %v", c.bench, c.threads, err)
				return
			}
			// The aggregate run the series was cut from: a cell-memo hit.
			agg, err := e.Do(ctx, []exp.Request{req})
			if err != nil {
				fail("%s x%d: %v", c.bench, c.threads, err)
				return
			}
			ts := out.Series
			if len(ts.Intervals) < 1 || len(ts.Intervals) > intervals+1 {
				fail("%s x%d: %d intervals for a target of %d", c.bench, c.threads, len(ts.Intervals), intervals)
				return
			}
			// The exact-sum invariant.
			var sum core.IntComponents
			var prevOps, prevCycle uint64
			for _, iv := range ts.Intervals {
				sum = sum.Add(iv.Components)
				if iv.StartOps != prevOps || iv.StartCycle != prevCycle {
					fail("%s x%d: interval %d does not continue its predecessor", c.bench, c.threads, iv.Index)
					return
				}
				prevOps, prevCycle = iv.EndOps, iv.EndCycle
			}
			if sum != ts.Aggregate {
				fail("%s x%d: interval sum != aggregate\nsum  %+v\naggr %+v", c.bench, c.threads, sum, ts.Aggregate)
				return
			}
			if prevOps != ts.TotalOps || prevCycle != ts.Tp {
				fail("%s x%d: intervals cover (%d ops, %d cycles) of a (%d, %d) run",
					c.bench, c.threads, prevOps, prevCycle, ts.TotalOps, ts.Tp)
				return
			}
			// The integer aggregate tracks the float estimator: the only
			// divergences are integer flooring (≤1 cycle per thread per
			// component; positive interference compounds it with the average
			// miss penalty, ≤ penalty+1 per thread).
			fc := ts.Stack.Components
			penalty := 0.0
			for i := range agg[0].Result.PerThread {
				tc := &agg[0].Result.PerThread[i]
				if tc.LLCLoadMisses > 0 {
					if p := float64(tc.StallLLCLoadMiss) / float64(tc.LLCLoadMisses); p > penalty {
						penalty = p
					}
				}
			}
			n := float64(c.threads)
			checks := []struct {
				name     string
				got      int64
				want, ab float64
			}{
				{"NegLLC", ts.Aggregate.NegLLC, fc.NegLLC, n},
				{"PosLLC", ts.Aggregate.PosLLC, fc.PosLLC, n * (penalty + 2)},
				{"NegMem", ts.Aggregate.NegMem, fc.NegMem, n},
				{"Spin", ts.Aggregate.Spin, fc.Spin, 0.5},
				{"Yield", ts.Aggregate.Yield, fc.Yield, 0.5},
				{"Imbalance", ts.Aggregate.Imbalance, fc.Imbalance, 0.5},
			}
			for _, ck := range checks {
				if math.Abs(float64(ck.got)-ck.want) > ck.ab {
					fail("%s x%d: integer %s = %d drifted from float %.2f (allowed ±%.1f)",
						c.bench, c.threads, ck.name, ck.got, ck.want, ck.ab)
				}
			}
		}(c)
	}
	wg.Wait()

	if runs := e.Stats().IntervalRuns - before; runs != len(cells) {
		t.Errorf("expected %d interval simulations, engine ran %d", len(cells), runs)
	}
}
