package exp

import (
	"context"
	"strings"

	"repro/internal/stack"
)

// Phase analysis: the whole-run aggregate stack answers "how much speedup
// does each delimiter cost", the time-resolved series answers "when" — a
// warmup phase thrashing the LLC, a lock storm in one barrier phase, a
// pipeline draining serially all look identical in the aggregate and
// completely different on the timeline. This file picks the registry
// analogues with the strongest phase structure and measures them
// time-resolved; cmd/experiments exposes it as the on-demand "phases"
// section (it is not a paper artifact, so "all" does not run it).

// PhaseBenchmarks lists the registry analogues with pronounced phase
// behaviour, one per mechanism: many barrier-separated phases (bodytrack,
// blackscholes), barrier phases with critical sections (fluidanimate,
// water-nsquared), pipeline fill/drain (ferret), and a lock-dispensed task
// queue (cholesky).
func PhaseBenchmarks() []string {
	return []string{
		"bodytrack_parsec_small",
		"blackscholes_parsec_medium",
		"fluidanimate_parsec_medium",
		"water-nsquared_splash2",
		"ferret_parsec_medium",
		"cholesky_splash2",
	}
}

// Phases measures the phase-heavy benchmarks time-resolved at the given
// thread count, splitting each run into count intervals. All aggregate
// outcomes and sequential references come from (and land in) the engine's
// shared memo.
func Phases(ctx context.Context, e *Engine, threads, count int) ([]stack.TimeSeries, error) {
	out := make([]stack.TimeSeries, 0, len(PhaseBenchmarks()))
	for _, name := range PhaseBenchmarks() {
		io, err := e.MeasureIntervals(ctx, Request{Cell: Cell{Bench: name, Threads: threads}}, count)
		if err != nil {
			return nil, err
		}
		out = append(out, io.Series)
	}
	return out, nil
}

// FormatPhases renders the series as consecutive interval tables.
func FormatPhases(series []stack.TimeSeries) string {
	var b strings.Builder
	for i, ts := range series {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(ts.Text())
	}
	return b.String()
}
