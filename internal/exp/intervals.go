package exp

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Time-resolved measurement: MeasureIntervals runs a cell with the
// simulator's interval accounting enabled and returns a stack.TimeSeries. It
// composes with everything the engine already memoizes — the sequential
// reference and the aggregate outcome come from the fingerprint-keyed memo
// (sizing the snapshot period needs the run's total op count, which the
// aggregate provides), and the interval run itself is memoized under the
// same key extended by the interval count, with the same singleflight and
// LRU discipline as cells.

// MaxIntervals bounds the interval count of a time-resolved measurement, for
// the library and the service alike. Each interval snapshot copies the
// per-thread counters, so the bound keeps one request's snapshot memory
// small: about 4.5 MB at 64 threads.
const MaxIntervals = 512

// IntervalOutcome is a cell's time-resolved decomposition. The aggregate
// outcome it was cut from stays in the cell memo, where Do finds it.
type IntervalOutcome struct {
	// Series is the interval-resolved speedup stack; its interval
	// components sum exactly to Series.Aggregate.
	Series stack.TimeSeries
}

// intervalKey extends a cell's identity with the requested interval count:
// the same cell at two granularities is two memo entries (each snapshot set
// is specific to its period), but both share the one memoized aggregate.
type intervalKey struct {
	cellKey
	count int
}

// MeasureIntervals measures one cell time-resolved: the run is divided into
// count equal slices of its committed trace operations and each slice gets
// its own component breakdown. A nil req.Config means the engine's base
// machine, like Do. The result is memoized and deduplicated exactly like a
// cell, so repeated requests — any alias or inline spec with the same
// fingerprint — cost one interval-enabled simulation.
func (e *Engine) MeasureIntervals(ctx context.Context, req Request, count int) (IntervalOutcome, error) {
	b, k, err := e.resolve(req)
	if err != nil {
		return IntervalOutcome{}, err
	}
	if count < 1 || count > MaxIntervals {
		return IntervalOutcome{}, refuse("intervals must be in [1,%d], got %d", MaxIntervals, count)
	}
	ik := intervalKey{cellKey: k, count: count}
	hit := func() { e.add(&e.stats.IntervalHits, 1) }
	out, err, ok := e.intervals.Peek(ik)
	switch {
	case ok:
		hit()
	case memoOnly(ctx):
		return IntervalOutcome{}, ErrNotMemoized
	default:
		out, err = e.intervals.Do(ctx, ik, hit, func() (IntervalOutcome, bool, error) {
			out, err := e.runIntervals(ctx, ik, b)
			return out, true, err
		})
	}
	if err != nil {
		return IntervalOutcome{}, err
	}
	// Like Do: identity is the fingerprint, so a memoized series may carry
	// the naming of whichever alias measured it first.
	out.Series.Label = b.FullName()
	return out, nil
}

// runIntervals executes the interval-enabled simulation for one unique
// (cell, count) after securing the memoized aggregate outcome (which also
// secures the sequential reference and supplies the total op count the
// snapshot period is derived from).
func (e *Engine) runIntervals(ctx context.Context, ik intervalKey, b workload.Benchmark) (IntervalOutcome, error) {
	agg, err := e.cell(ctx, ik.cellKey, b)
	if err != nil {
		return IntervalOutcome{}, err
	}
	// ceil(TotalOps/count) boundaries yield at most count intervals; the
	// completion snapshot merges into the last boundary when they coincide.
	period := (agg.Result.TotalOps + uint64(ik.count) - 1) / uint64(ik.count)
	if period == 0 {
		period = 1
	}

	res, err := e.simulate(ctx, "interval", ik.cfg, b, ik.threads, ik.cores, sim.WithIntervals(period))
	if err != nil {
		return IntervalOutcome{}, err
	}
	// Interval accounting must be unobservable in the aggregate — snapshots
	// only read counters. A divergence here is an engine bug, not a
	// workload property, so fail loudly instead of returning skewed data.
	if res.Tp != agg.Result.Tp || res.TotalOps != agg.Result.TotalOps {
		return IntervalOutcome{}, fmt.Errorf(
			"exp: interval accounting perturbed %s x%d: Tp %d vs %d, ops %d vs %d",
			b.FullName(), ik.threads, res.Tp, agg.Result.Tp, res.TotalOps, agg.Result.TotalOps)
	}
	series, err := stack.NewTimeSeries(b.FullName(), res.Stack(agg.Ts),
		res.PerThread, res.Intervals, period)
	return IntervalOutcome{Series: series}, err
}
