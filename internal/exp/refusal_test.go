package exp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRefusalsAreTyped pins the engine as the one judge of a request: every
// refusal it makes before simulating is a *RequestError carrying the
// wording the service answers on the wire, every failed name or ID lookup
// a *workload.LookupError, and none of them fires the run hook. A request
// wrong twice fails on the wire's first rule: bench or spec, the workload,
// the run shape, the endpoint's own rules (its range or floor, then the
// exact machine that advise and what-if need), then the intervention IDs.
func TestRefusalsAreTyped(t *testing.T) {
	var runs atomic.Int32
	hook := WithRunHook(func(string, string, int, int) { runs.Add(1) })
	e := NewEngine(sim.Default(), hook)
	fastCfg := sim.Default().WithMode(sim.ModeFast)
	fastEngine := NewEngine(fastCfg, hook)
	ctx := context.Background()
	b, ok := workload.ByName("cholesky_splash2")
	if !ok {
		t.Fatal("cholesky_splash2 not registered")
	}
	spec := b.Spec
	invalid := b.Spec
	invalid.ArrayBytes = -1
	invalidErr := invalid.Validate()
	good := Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 4}}
	fast := Request{Cell: good.Cell, Config: &fastCfg}
	const adviseFast = "advise runs on the exact machine only: fast mode breaks the advisor's scaling classification"
	const whatIfFast = "what-if runs on the exact machine only: fast mode breaks the prediction error bounds"
	nosuch := workload.UnknownBenchmarkError("nosuch").Error()
	do := func(c Cell) func() error {
		return func() error { _, err := e.Do(ctx, []Request{{Cell: c}}); return err }
	}

	for _, tc := range []struct {
		name   string
		call   func() error
		lookup bool   // a *workload.LookupError rather than a *RequestError
		msg    string // the exact message, when pinned
	}{
		{"advise range low", func() error { _, err := e.Advise(ctx, good, 2); return err },
			false, "max_threads must be in [3,64], got 2"},
		{"advise range high", func() error { _, err := e.Advise(ctx, good, cache.MaxCores+1); return err },
			false, "max_threads must be in [3,64], got 65"},
		{"what-if floor", func() error {
			_, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 1}}, nil)
			return err
		}, false, "what-if needs threads >= 2 (a single-threaded run has no scaling gap), got 1"},
		{"unknown intervention", func() error { _, err := e.WhatIf(ctx, good, []string{"triple_llc"}); return err },
			true, ""},
		{"interval range low", func() error { _, err := e.MeasureIntervals(ctx, good, 0); return err },
			false, "intervals must be in [1,512], got 0"},
		{"interval range high", func() error { _, err := e.MeasureIntervals(ctx, good, MaxIntervals+1); return err },
			false, "intervals must be in [1,512], got 513"},
		{"bench and spec", do(Cell{Bench: "cholesky_splash2", Spec: &spec, Threads: 4}),
			false, "give bench or spec, not both"},
		{"threads", do(Cell{Bench: "cholesky_splash2"}),
			false, "threads must be in [1,256], got 0"},
		{"cores", do(Cell{Bench: "cholesky_splash2", Threads: 4, Cores: 65}),
			false, "cores must be in [0,64], got 65"},
		{"threads over the core limit", do(Cell{Bench: "cholesky_splash2", Threads: 65}),
			false, "threads 65 exceeds the simulator's 64-core limit; pass an explicit cores"},
		{"invalid spec", do(Cell{Spec: &invalid, Threads: 4}), false, ""},
		{"unknown bench", do(Cell{Bench: "nosuch", Threads: 4}), true, ""},
		{"neither bench nor spec", do(Cell{Threads: 4}), true, ""},
		{"unknown bench + threads 0", do(Cell{Bench: "nosuch"}), true, nosuch},
		{"invalid spec + threads 0", do(Cell{Spec: &invalid}), false, invalidErr.Error()},
		{"unknown bench + what-if floor", func() error {
			_, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: "nosuch", Threads: 1}}, nil)
			return err
		}, true, nosuch},
		{"unknown bench + unknown intervention", func() error {
			_, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: "nosuch", Threads: 4}}, []string{"triple_llc"})
			return err
		}, true, nosuch},
		{"unknown bench + advise range", func() error {
			_, err := e.Advise(ctx, Request{Cell: Cell{Bench: "nosuch"}}, 2)
			return err
		}, true, nosuch},
		{"unknown bench + interval range", func() error {
			_, err := e.MeasureIntervals(ctx, Request{Cell: Cell{Bench: "nosuch", Threads: 4}}, 0)
			return err
		}, true, nosuch},
		{"threads 0 + interval range", func() error {
			_, err := e.MeasureIntervals(ctx, Request{Cell: Cell{Bench: "cholesky_splash2"}}, 0)
			return err
		}, false, "threads must be in [1,256], got 0"},
		{"threads 0 + unknown intervention", func() error {
			_, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: "cholesky_splash2"}}, []string{"triple_llc"})
			return err
		}, false, "threads must be in [1,256], got 0"},
		{"advise on the fast machine", func() error { _, err := e.Advise(ctx, fast, 16); return err },
			false, adviseFast},
		{"advise on a fast engine", func() error { _, err := fastEngine.Advise(ctx, good, 16); return err },
			false, adviseFast},
		{"what-if on the fast machine", func() error { _, err := e.WhatIf(ctx, fast, nil); return err },
			false, whatIfFast},
		{"what-if on a fast engine", func() error { _, err := fastEngine.WhatIf(ctx, good, nil); return err },
			false, whatIfFast},
		{"advise range + fast machine", func() error { _, err := e.Advise(ctx, fast, 2); return err },
			false, "max_threads must be in [3,64], got 2"},
		{"fast machine + unknown intervention", func() error { _, err := e.WhatIf(ctx, fast, []string{"triple_llc"}); return err },
			false, whatIfFast},
		{"what-if floor + unknown intervention", func() error {
			_, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: "cholesky_splash2", Threads: 1}}, []string{"triple_llc"})
			return err
		}, false, "what-if needs threads >= 2 (a single-threaded run has no scaling gap), got 1"},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var refused *RequestError
		var lookup *workload.LookupError
		if tc.lookup && !errors.As(err, &lookup) {
			t.Errorf("%s: %T (%v) is not a *workload.LookupError", tc.name, err, err)
		}
		if !tc.lookup && !errors.As(err, &refused) {
			t.Errorf("%s: %T (%v) is not a *RequestError", tc.name, err, err)
		}
		if tc.msg != "" && err.Error() != tc.msg {
			t.Errorf("%s: message %q, want %q", tc.name, err, tc.msg)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("refused requests fired the run hook %d times", n)
	}
}
