package stack

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// TimeSeries is the time-resolved form of one speedup stack: the whole-run
// aggregate decomposition plus a sequence of intervals (equal slices of the
// run's committed trace operations) each carrying its own integer-cycle
// component breakdown. The run's thread count and execution time are its
// aggregate stack's, read as Stack.N and Stack.Tp.
//
// The invariant the type is built around: the componentwise sum of
// Intervals[i].Components over all intervals equals Aggregate exactly, in
// int64 arithmetic. NewTimeSeries guarantees it by construction — every
// interval is the difference of consecutive cumulative estimates
// (core.CumulativeComponents), so the sum telescopes. Individual interval
// components can be transiently negative (see core.IntComponents); the
// renderers clamp negatives visually while the data keeps exact values.
type TimeSeries struct {
	// Label names the measured workload (benchmark FullName).
	Label string
	// TotalOps is the run's committed trace operations; the last interval
	// ends there.
	TotalOps uint64
	// EveryOps is the snapshot period the run was measured with.
	EveryOps uint64
	// Aggregate is the whole-run integer-cycle decomposition — exactly the
	// sum of the interval components.
	Aggregate core.IntComponents
	// Stack is the whole-run aggregate speedup stack (the float estimator,
	// with the measured actual speedup attached when known) and the one
	// copy of the run's thread count N and execution time Tp. It is the same
	// decomposition as Aggregate up to integer rounding; the exactness
	// guarantee is stated on Aggregate.
	Stack core.Stack
	// Intervals are the per-interval breakdowns, in run order.
	Intervals []Interval
}

// Interval is one time slice of a TimeSeries: the half-open op range
// (StartOps, EndOps], the wall-cycle span the run covered while committing
// those ops, and the integer-cycle components attributed to the slice.
// It is also the report's interval row: summing any field of Components
// across all rows reproduces the matching AggregateCycles field exactly.
type Interval struct {
	// Index is the interval's position, starting at 0.
	Index int `json:"index"`
	// StartOps and EndOps bound the slice in cumulative committed ops.
	StartOps uint64 `json:"start_ops"`
	EndOps   uint64 `json:"end_ops"`
	// StartCycle and EndCycle bound the slice in cycles (the furthest
	// thread-local time at each boundary; the last EndCycle is Tp).
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	// Components is the slice's integer-cycle decomposition.
	Components core.IntComponents `json:"cycles"`
}

// Capacity returns the interval's total thread-cycle capacity,
// N × (EndCycle − StartCycle) — the denominator that turns component
// cycles into the fraction of compute capacity lost in the slice.
func (iv Interval) Capacity(n int) int64 {
	return int64(n) * int64(iv.EndCycle-iv.StartCycle)
}

// NewTimeSeries assembles the time-resolved stack of one run. agg is the
// run's aggregate stack, final the end-of-run per-thread counters (they
// freeze the extrapolation factors), snaps the cumulative snapshots the
// simulator took (sim.WithIntervals), and everyOps the snapshot period.
func NewTimeSeries(label string, agg core.Stack, final []core.ThreadCounters,
	snaps []core.IntervalSnapshot, everyOps uint64) (TimeSeries, error) {
	if len(snaps) == 0 {
		return TimeSeries{}, fmt.Errorf("stack: no interval snapshots (was the run executed with WithIntervals?)")
	}
	ts := TimeSeries{
		Label:     label,
		TotalOps:  snaps[len(snaps)-1].Ops,
		EveryOps:  everyOps,
		Stack:     agg,
		Intervals: make([]Interval, len(snaps)),
	}
	var prev core.IntComponents
	var prevOps, prevCycle uint64
	for k, snap := range snaps {
		if len(snap.Threads) != len(final) {
			return TimeSeries{}, fmt.Errorf("stack: snapshot %d has %d threads, final counters %d",
				k, len(snap.Threads), len(final))
		}
		if snap.Ops < prevOps {
			return TimeSeries{}, fmt.Errorf("stack: snapshot ops went backwards (%d after %d)", snap.Ops, prevOps)
		}
		cum := core.CumulativeComponents(snap.Threads, final, snap.Finished, snap.Time)
		ts.Intervals[k] = Interval{
			Index:      k,
			StartOps:   prevOps,
			EndOps:     snap.Ops,
			StartCycle: prevCycle,
			EndCycle:   snap.Time,
			Components: cum.Sub(prev),
		}
		prev, prevOps, prevCycle = cum, snap.Ops, snap.Time
	}
	ts.Aggregate = prev
	return ts, nil
}

// TimeSeriesReport is the machine-readable form of a TimeSeries: run
// metadata, the aggregate stack row, the exact integer-cycle aggregate, and
// one row per interval.
type TimeSeriesReport struct {
	// Benchmark and Threads identify the measured run.
	Benchmark string `json:"benchmark"`
	Threads   int    `json:"threads"`
	// TpCycles is the run's execution time; TotalOps its committed trace
	// operations; IntervalOps the snapshot period.
	TpCycles    uint64 `json:"tp_cycles"`
	TotalOps    uint64 `json:"total_ops"`
	IntervalOps uint64 `json:"interval_ops"`
	// Aggregate is the whole-run stack in speedup units (the same row
	// GET /v1/stack serves); AggregateCycles the exact integer form the
	// interval rows sum to.
	Aggregate       ReportRow          `json:"aggregate"`
	AggregateCycles core.IntComponents `json:"aggregate_cycles"`
	// Intervals are the per-interval rows, in run order.
	Intervals []Interval `json:"intervals"`
}

// JSON converts the series into its machine-readable form, one
// TimeSeriesReport object.
func (ts TimeSeries) JSON() any {
	return TimeSeriesReport{
		Benchmark:       ts.Label,
		Threads:         ts.Stack.N,
		TpCycles:        ts.Stack.Tp,
		TotalOps:        ts.TotalOps,
		IntervalOps:     ts.EveryOps,
		Aggregate:       Row(Bar{Label: ts.Label, Stack: ts.Stack}),
		AggregateCycles: ts.Aggregate,
		Intervals:       ts.Intervals,
	}
}

// CSV is one record per interval with the exact integer-cycle components,
// and a final "total" record carrying the aggregate (to which the interval
// records sum exactly).
func (ts TimeSeries) CSV() ([]string, [][]string) {
	header := []string{"benchmark", "threads", "interval", "start_ops", "end_ops",
		"start_cycle", "end_cycle", "neg_llc_cycles", "pos_llc_cycles",
		"memory_cycles", "spinning_cycles", "yielding_cycles", "imbalance_cycles"}
	rec := func(slot string, startOps, endOps, startCycle, endCycle uint64, c core.IntComponents) []string {
		return []string{
			ts.Label, strconv.Itoa(ts.Stack.N), slot,
			strconv.FormatUint(startOps, 10), strconv.FormatUint(endOps, 10),
			strconv.FormatUint(startCycle, 10), strconv.FormatUint(endCycle, 10),
			strconv.FormatInt(c.NegLLC, 10), strconv.FormatInt(c.PosLLC, 10),
			strconv.FormatInt(c.NegMem, 10), strconv.FormatInt(c.Spin, 10),
			strconv.FormatInt(c.Yield, 10), strconv.FormatInt(c.Imbalance, 10),
		}
	}
	records := make([][]string, 0, len(ts.Intervals)+1)
	for _, iv := range ts.Intervals {
		records = append(records, rec(strconv.Itoa(iv.Index), iv.StartOps, iv.EndOps,
			iv.StartCycle, iv.EndCycle, iv.Components))
	}
	records = append(records, rec("total", 0, ts.TotalOps, 0, ts.Stack.Tp, ts.Aggregate))
	return header, records
}

// Text renders the series as a fixed-width text table: one row
// per interval showing the op range, the wall-cycle span, and each
// component as a percentage of the interval's thread-cycle capacity
// (N × wall cycles), followed by the aggregate row.
func (ts TimeSeries) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s N=%d  Tp=%d cycles  %d ops in %d intervals (every %d ops)\n",
		ts.Label, ts.Stack.N, ts.Stack.Tp, ts.TotalOps, len(ts.Intervals), ts.EveryOps)
	fmt.Fprintf(&b, "%9s %22s %22s %7s %7s %7s %7s %7s %7s\n",
		"interval", "ops", "cycles", "netLLC%", "posLLC%", "mem%", "spin%", "yield%", "imbal%")
	pct := func(v int64, cap int64) string {
		if cap <= 0 {
			return "-"
		}
		return string(appendFixed(make([]byte, 0, 24), 100*float64(v)/float64(cap), 2))
	}
	row := func(slot string, startOps, endOps, startCycle, endCycle uint64, c core.IntComponents, cap int64) {
		net := c.NegLLC - c.PosLLC
		if net < 0 {
			net = 0
		}
		fmt.Fprintf(&b, "%9s %10d-%-11d %10d-%-11d %7s %7s %7s %7s %7s %7s\n",
			slot, startOps, endOps, startCycle, endCycle,
			pct(net, cap), pct(c.PosLLC, cap), pct(c.NegMem, cap),
			pct(c.Spin, cap), pct(c.Yield, cap), pct(c.Imbalance, cap))
	}
	for _, iv := range ts.Intervals {
		row(strconv.Itoa(iv.Index), iv.StartOps, iv.EndOps, iv.StartCycle, iv.EndCycle,
			iv.Components, iv.Capacity(ts.Stack.N))
	}
	row("total", 0, ts.TotalOps, 0, ts.Stack.Tp, ts.Aggregate, int64(ts.Stack.N)*int64(ts.Stack.Tp))
	return b.String()
}

// EncodeTimeSeries is EncodeDocument(w, f, ts); it survives as a name because
// benchmark/probes.go compiles against it.
func EncodeTimeSeries(w io.Writer, f Format, ts TimeSeries) error { return EncodeDocument(w, f, ts) }
