package stack_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// seriesFor measures one registry benchmark with interval accounting and
// builds its time series.
func seriesFor(t *testing.T, bench string, threads int, every uint64) stack.TimeSeries {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("%s not registered", bench)
	}
	cfg := sim.Default().WithCores(threads)
	cfg.Policy = b.Spec.TunePolicy(cfg.Policy)
	progs, err := b.Spec.Parallel(threads)
	if err != nil {
		t.Fatal(err)
	}
	opts := append(b.Spec.PipelineOptions(threads), sim.WithIntervals(every))
	res, err := sim.Run(cfg, progs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := stack.NewTimeSeries(b.FullName(), res.Stack(0), res.PerThread,
		res.Intervals, every)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTimeSeriesExactSum pins the construction invariant on a real run: the
// componentwise int64 sum of the intervals equals the aggregate exactly,
// and the interval boundaries partition the run.
func TestTimeSeriesExactSum(t *testing.T) {
	ts := seriesFor(t, "fluidanimate_parsec_medium", 4, 9000)
	if len(ts.Intervals) < 4 {
		t.Fatalf("want several intervals, got %d", len(ts.Intervals))
	}
	var sum core.IntComponents
	var prevOps, prevCycle uint64
	for _, iv := range ts.Intervals {
		sum = sum.Add(iv.Components)
		if iv.StartOps != prevOps || iv.StartCycle != prevCycle {
			t.Fatalf("interval %d does not continue its predecessor", iv.Index)
		}
		prevOps, prevCycle = iv.EndOps, iv.EndCycle
	}
	if sum != ts.Aggregate {
		t.Fatalf("interval sum != aggregate:\nsum  %+v\naggr %+v", sum, ts.Aggregate)
	}
	if prevOps != ts.TotalOps || prevCycle != ts.Stack.Tp {
		t.Fatalf("intervals do not cover the run: end (%d ops, %d cycles), run (%d, %d)",
			prevOps, prevCycle, ts.TotalOps, ts.Stack.Tp)
	}
}

// TestTimeSeriesEncoders smoke-checks every format: JSON round-trips with
// the exact-sum invariant intact, CSV has one record per interval plus the
// total, text includes the total row, and SVG is a standalone document with
// the legend.
func TestTimeSeriesEncoders(t *testing.T) {
	ts := seriesFor(t, "swaptions_parsec_small", 2, 20000)

	var buf bytes.Buffer
	if err := stack.EncodeTimeSeries(&buf, stack.FormatJSON, ts); err != nil {
		t.Fatal(err)
	}
	var rep stack.TimeSeriesReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if rep.Benchmark != ts.Label || len(rep.Intervals) != len(ts.Intervals) {
		t.Fatalf("report lost shape: %q with %d intervals", rep.Benchmark, len(rep.Intervals))
	}
	var sum core.IntComponents
	for _, iv := range rep.Intervals {
		sum = sum.Add(iv.Components)
	}
	if sum != rep.AggregateCycles {
		t.Fatalf("decoded interval sum != aggregate_cycles")
	}

	buf.Reset()
	if err := stack.EncodeTimeSeries(&buf, stack.FormatCSV, ts); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ts.Intervals)+2 {
		t.Fatalf("CSV: want header + %d intervals + total, got %d records", len(ts.Intervals), len(recs))
	}
	if got := recs[len(recs)-1][2]; got != "total" {
		t.Fatalf("CSV: last record slot %q, want total", got)
	}

	buf.Reset()
	if err := stack.EncodeTimeSeries(&buf, stack.FormatText, ts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "total") || !strings.Contains(buf.String(), ts.Label) {
		t.Fatal("text table missing label or total row")
	}

	buf.Reset()
	if err := stack.EncodeTimeSeries(&buf, stack.FormatSVG, ts); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg xmlns=") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatal("timeline SVG is not a standalone document")
	}
	for _, want := range []string{"Speedup-stack timeline", "yielding", "committed ops", ts.Label} {
		if !strings.Contains(svg, want) {
			t.Fatalf("timeline SVG missing %q", want)
		}
	}
}

// TestNewTimeSeriesRejectsBadInput covers the constructor's validation.
func TestNewTimeSeriesRejectsBadInput(t *testing.T) {
	agg := core.Stack{N: 1, Tp: 100}
	fin := []core.ThreadCounters{{FinishTime: 100}}
	if _, err := stack.NewTimeSeries("x", agg, fin, nil, 10); err == nil {
		t.Fatal("no error for empty snapshot set")
	}
	bad := []core.IntervalSnapshot{{Ops: 5, Time: 50, Threads: make([]core.ThreadCounters, 2), Finished: make([]bool, 2)}}
	if _, err := stack.NewTimeSeries("x", agg, fin, bad, 10); err == nil {
		t.Fatal("no error for thread-count mismatch")
	}
}
