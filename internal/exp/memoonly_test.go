package exp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// memoOnlyCall is one engine entry point as the service calls it: run
// answers the call's result under ctx.
type memoOnlyCall struct {
	name string
	run  func(ctx context.Context, e *Engine) (any, error)
	// warm is the ordinary call that memoizes part of what run needs.
	warm func(ctx context.Context, e *Engine) error
	// hits is what a fully memoized run adds to (CellHits, IntervalHits).
	hits [2]int
}

func memoOnlyCalls() []memoOnlyCall {
	a := Request{Cell: Cell{Bench: "blackscholes_parsec_small", Threads: 2}}
	b := Request{Cell: Cell{Bench: "swaptions_parsec_small", Threads: 2}}
	do := func(reqs ...Request) func(context.Context, *Engine) error {
		return func(ctx context.Context, e *Engine) error { _, err := outcomes(ctx, e, reqs); return err }
	}
	return []memoOnlyCall{
		{"batch", func(ctx context.Context, e *Engine) (any, error) { return outcomes(ctx, e, []Request{a, b, a}) },
			do(a), [2]int{2, 0}},
		// blackscholes has two applicable interventions.
		{"whatif", func(ctx context.Context, e *Engine) (any, error) { return e.WhatIf(ctx, a, nil) },
			do(a), [2]int{3, 0}},
		{"advise", func(ctx context.Context, e *Engine) (any, error) { return e.Advise(ctx, a, 4) },
			do(a, b), [2]int{3, 0}},
		{"intervals", func(ctx context.Context, e *Engine) (any, error) { return e.MeasureIntervals(ctx, a, 4) },
			do(a), [2]int{0, 1}},
	}
}

// TestMemoOnlyIsAllOrNothing: a call under MemoOnly whose memo entries are
// only partly there fails with ErrNotMemoized and leaves every Stats
// counter, Batches, CellsDeclared and CellsDone included, as it found them.
// Once the call has been made the ordinary way, MemoOnly answers exactly
// what an ordinary repeat answers and counts exactly the hits the ordinary
// repeat counts.
func TestMemoOnlyIsAllOrNothing(t *testing.T) {
	ctx := context.Background()
	for _, c := range memoOnlyCalls() {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(sim.Default(), WithWorkers(2))
			if err := c.warm(ctx, e); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if _, err := c.run(MemoOnly(ctx), e); !errors.Is(err, ErrNotMemoized) {
				t.Fatalf("partly memoized call: err %v, want ErrNotMemoized", err)
			}
			if got := e.Stats(); got != st {
				t.Errorf("failed memo-only call moved the stats:\n got %+v\nwant %+v", got, st)
			}

			if _, err := c.run(ctx, e); err != nil {
				t.Fatal(err)
			}
			hits := func(before, after Stats) [2]int {
				return [2]int{after.CellHits - before.CellHits, after.IntervalHits - before.IntervalHits}
			}
			st = e.Stats()
			want, err := c.run(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			repeat := e.Stats()
			if got := hits(st, repeat); got != c.hits {
				t.Errorf("ordinary repeat counted (cell, interval) hits %v, want %v", got, c.hits)
			}
			got, err := c.run(MemoOnly(ctx), e)
			if err != nil {
				t.Fatalf("fully memoized call under MemoOnly: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("memo-only answer differs from the ordinary call's")
			}
			after := e.Stats()
			if h := hits(repeat, after); h != c.hits {
				t.Errorf("memo-only call counted (cell, interval) hits %v, want %v", h, c.hits)
			}
			if after.CellRuns != st.CellRuns || after.SeqRuns != st.SeqRuns || after.IntervalRuns != st.IntervalRuns {
				t.Errorf("memoized calls simulated: before %+v, after %+v", st, after)
			}
		})
	}
}

// TestMemoOnlyRefusesLikeDo: a request the engine refuses is refused the
// same way under MemoOnly — the refusal is the answer, not a miss.
func TestMemoOnlyRefusesLikeDo(t *testing.T) {
	e := NewEngine(sim.Default(), WithWorkers(1))
	req := Request{Cell: Cell{Bench: "blackscholes_parsec_small", Threads: 1}}
	_, err := e.WhatIf(MemoOnly(context.Background()), req, nil)
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("one-thread what-if under MemoOnly: err %v, want a RequestError", err)
	}
	if st := e.Stats(); st != (Stats{}) {
		t.Errorf("refusal moved the stats: %+v", st)
	}
}
