package exp

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// whatIfThreadCounts are the regression grid's thread counts: a mid-scale
// and a full-machine point, matching the paper's 4- and 16-thread stacks.
var whatIfThreadCounts = []int{4, 16}

// TestWhatIfPredictionErrorRegression is the falsifiability regression:
// every catalog intervention, on every registry analogue, at 4 and 16
// threads, must predict the re-simulated speedup within its documented
// bound (whatif.ErrorBounds, Formula (6) normalization). A prediction
// drifting past its bound means either the estimator or the mutation
// changed meaning — both are findings, not flakes: the simulator and the
// estimator are fully deterministic.
func TestWhatIfPredictionErrorRegression(t *testing.T) {
	e := sharedEngine()
	ctx := context.Background()

	// worst tracks the observed per-intervention maximum |error| so the
	// failure message (and -v output) documents the real margin to the bound.
	worst := make(map[string]float64)
	worstAt := make(map[string]string)
	checked := 0
	for _, b := range workload.All() {
		name := b.FullName()
		for _, n := range whatIfThreadCounts {
			rep, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: name, Threads: n}}, nil)
			if err != nil {
				t.Fatalf("%s x%d: %v", name, n, err)
			}
			for _, p := range rep.Predictions {
				bound, ok := whatif.ErrorBounds[p.Intervention]
				if !ok {
					t.Fatalf("%s x%d: intervention %q has no documented error bound", name, n, p.Intervention)
				}
				if ae := math.Abs(p.Error); ae > bound {
					t.Errorf("%s x%d %s: |error| = %.4f exceeds documented bound %.2f (predicted %.2f, re-simulated %.2f)",
						name, n, p.Intervention, ae, bound, p.PredictedSpeedup, p.ActualSpeedup)
				} else if ae > worst[p.Intervention] {
					worst[p.Intervention] = ae
					worstAt[p.Intervention] = name
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no predictions checked")
	}
	ids := make([]string, 0, len(worst))
	for id := range worst {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t.Logf("%-18s worst |error| %.4f (%s), bound %.2f", id, worst[id], worstAt[id], whatif.ErrorBounds[id])
	}
}

// TestWhatIfRankingStableAcrossWorkers pins determinism contract #1 for the
// what-if path: the full report — rankings, predictions, bars — is
// byte-identical whether the engine runs serially or wide.
func TestWhatIfRankingStableAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	cells := []Cell{
		{Bench: "cholesky_splash2", Threads: 16},
		{Bench: "ferret_parsec_medium", Threads: 8},
		{Bench: "water-nsquared_splash2", Threads: 4},
	}
	for _, cell := range cells {
		serial := NewEngine(sim.Default(), WithWorkers(1))
		wide := NewEngine(sim.Default(), WithWorkers(8))
		a, err := serial.WhatIf(ctx, Request{Cell: cell}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wide.WhatIf(ctx, Request{Cell: cell}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s x%d: report differs between 1 and 8 workers:\n%+v\n%+v",
				cell.Bench, cell.Threads, a, b)
		}
	}
}

// TestWhatIfRepeatZeroSims is the memo acceptance test from the issue: a
// repeated what-if — and a what-if after a sweep that already simulated the
// baseline — performs zero additional simulations.
func TestWhatIfRepeatZeroSims(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(4))
	ctx := context.Background()
	req := Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 8}}

	first, err := e.WhatIf(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if before.CellRuns == 0 {
		t.Fatal("first what-if simulated nothing")
	}
	second, err := e.WhatIf(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.CellRuns != before.CellRuns || after.SeqRuns != before.SeqRuns {
		t.Errorf("repeated what-if re-simulated: before %+v, after %+v", before, after)
	}
	if after.CellHits <= before.CellHits {
		t.Errorf("repeated what-if recorded no memo hits: before %+v, after %+v", before, after)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated what-if returned a different report")
	}
}

// TestWhatIfAfterBaselineAddsOnlyMutations pins the exact cell arithmetic:
// when the baseline cell is already memoized, a full-catalog what-if adds
// exactly one simulation per applicable mutation and nothing else.
func TestWhatIfAfterBaselineAddsOnlyMutations(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(4))
	ctx := context.Background()
	req := Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 8}}
	if _, err := e.Do(ctx, []Request{req}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	rep, err := e.WhatIf(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	want := len(rep.Predictions)
	if got := after.CellRuns - before.CellRuns; got != want {
		t.Errorf("what-if after baseline added %d cell runs, want %d (one per applicable mutation)", got, want)
	}
}

// TestWhatIfMinThreads rejects cells below MinWhatIfThreads before any
// simulation.
func TestWhatIfMinThreads(t *testing.T) {
	e := NewEngine(sim.Default())
	_, err := e.WhatIf(context.Background(), Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 1}}, nil)
	if err == nil {
		t.Fatal("what-if accepted a single-threaded cell")
	}
	if !strings.Contains(err.Error(), "threads >= 2") {
		t.Errorf("error %q does not state the thread floor", err)
	}
	if st := e.Stats(); st.CellRuns != 0 {
		t.Errorf("simulations ran despite rejection: %+v", st)
	}
}

// TestWhatIfUnknownIntervention surfaces the typed catalog error with its
// suggestion before any simulation.
func TestWhatIfUnknownIntervention(t *testing.T) {
	e := NewEngine(sim.Default())
	_, err := e.WhatIf(context.Background(),
		Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 8}}, []string{"double_lcc"})
	if err == nil {
		t.Fatal("unknown intervention accepted")
	}
	var ivErr *workload.LookupError
	if !errors.As(err, &ivErr) {
		t.Fatalf("error %T is not *workload.LookupError", err)
	}
	if ivErr.Suggestion != whatif.DoubleLLC {
		t.Errorf("suggestion = %q, want %q", ivErr.Suggestion, whatif.DoubleLLC)
	}
	if st := e.Stats(); st.CellRuns != 0 {
		t.Errorf("simulations ran despite rejection: %+v", st)
	}
}
