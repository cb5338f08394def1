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
// time-resolved as the on-demand "phases" section (it is not a paper
// artifact, so "all" does not run it).

// phaseBenchmarks lists the registry analogues with pronounced phase
// behaviour, one per mechanism: many barrier-separated phases (bodytrack,
// blackscholes), barrier phases with critical sections (fluidanimate,
// water-nsquared), pipeline fill/drain (ferret), and a lock-dispensed task
// queue (cholesky).
var phaseBenchmarks = []string{
	"bodytrack_parsec_small",
	"blackscholes_parsec_medium",
	"fluidanimate_parsec_medium",
	"water-nsquared_splash2",
	"ferret_parsec_medium",
	"cholesky_splash2",
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

// runPhases measures the phase-heavy benchmarks time-resolved at 16
// threads, splitting each run into p.Intervals intervals. All aggregate
// outcomes and sequential references come from (and land in) the engine's
// shared memo.
func runPhases(ctx context.Context, e *Engine, p Params) (string, error) {
	series := make([]stack.TimeSeries, 0, len(phaseBenchmarks))
	for _, name := range phaseBenchmarks {
		io, err := e.MeasureIntervals(ctx, Request{Cell: Cell{Bench: name, Threads: 16}}, p.Intervals)
		if err != nil {
			return "", err
		}
		series = append(series, io.Series)
	}
	if p.Timelines != nil {
		if err := p.Timelines(series); err != nil {
			return "", err
		}
	}
	return FormatPhases(series), nil
}
