package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// intervalTestRun runs one registry benchmark on a threads-core machine with
// the given extra options, through the step the sweep engine uses.
func intervalTestRun(t *testing.T, bench string, threads int, opts ...sim.Option) sim.Result {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("%s not registered", bench)
	}
	res, err := workload.Simulate(sim.Default(), b.Spec, threads, threads, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIntervalsDisabledIdentical pins the tentpole's no-perturbation
// contract: enabling interval accounting changes nothing but the Intervals
// field — Tp and every counter are byte-identical.
// (With the option disabled the golden experiments hash pins the same
// thing against the full evaluation.)
func TestIntervalsDisabledIdentical(t *testing.T) {
	for _, bench := range []string{"bodytrack_parsec_small", "ferret_parsec_small", "cholesky_splash2"} {
		plain := intervalTestRun(t, bench, 4)
		with := intervalTestRun(t, bench, 4, sim.WithIntervals(plain.TotalOps/8+1))
		if len(with.Intervals) == 0 {
			t.Fatalf("%s: interval run recorded no snapshots", bench)
		}
		if plain.Intervals != nil {
			t.Fatalf("%s: plain run carries interval state", bench)
		}
		stripped := with
		stripped.Intervals = nil
		if !reflect.DeepEqual(plain, stripped) {
			t.Fatalf("%s: interval accounting perturbed the result:\nplain %+v\nwith  %+v",
				bench, plain, stripped)
		}
	}
}

// TestIntervalSnapshots checks the snapshot sequence contract: cumulative
// ops strictly increase up to TotalOps, snapshot times never move
// backwards and end at Tp, per-thread counters are cumulative, and the
// final snapshot marks every thread finished.
func TestIntervalSnapshots(t *testing.T) {
	res := intervalTestRun(t, "bodytrack_parsec_small", 4, sim.WithIntervals(5000))
	snaps := res.Intervals
	if len(snaps) < 2 {
		t.Fatalf("want several snapshots, got %d", len(snaps))
	}
	var prevOps, prevTime uint64
	for k, s := range snaps {
		if s.Ops <= prevOps && k > 0 {
			t.Fatalf("snapshot %d: ops not increasing (%d after %d)", k, s.Ops, prevOps)
		}
		if s.Time < prevTime {
			t.Fatalf("snapshot %d: time moved backwards (%d after %d)", k, s.Time, prevTime)
		}
		if len(s.Threads) != res.Threads || len(s.Finished) != res.Threads {
			t.Fatalf("snapshot %d: %d counters / %d finished flags for %d threads",
				k, len(s.Threads), len(s.Finished), res.Threads)
		}
		if k > 0 {
			for i := range s.Threads {
				if s.Threads[i].LLCAccesses < snaps[k-1].Threads[i].LLCAccesses {
					t.Fatalf("snapshot %d thread %d: LLCAccesses not cumulative", k, i)
				}
			}
		}
		prevOps, prevTime = s.Ops, s.Time
	}
	last := snaps[len(snaps)-1]
	if last.Ops != res.TotalOps {
		t.Fatalf("final snapshot at %d ops, run committed %d", last.Ops, res.TotalOps)
	}
	if last.Time != res.Tp {
		t.Fatalf("final snapshot time %d, Tp %d", last.Time, res.Tp)
	}
	for i, fin := range last.Finished {
		if !fin {
			t.Fatalf("final snapshot: thread %d not finished", i)
		}
		if last.Threads[i] != res.PerThread[i] {
			t.Fatalf("final snapshot thread %d counters differ from the result's", i)
		}
	}
}

// TestIntervalsPoolReset guards the pooled hot path: a machine recycled
// after an interval-enabled run must not leak interval state into the next
// (plain) run of the same configuration.
func TestIntervalsPoolReset(t *testing.T) {
	with := intervalTestRun(t, "swaptions_parsec_small", 2, sim.WithIntervals(1000))
	if len(with.Intervals) == 0 {
		t.Fatal("interval run recorded no snapshots")
	}
	plain := intervalTestRun(t, "swaptions_parsec_small", 2)
	if plain.Intervals != nil {
		t.Fatal("pooled machine leaked interval accounting into a plain run")
	}
}

// unbatched hands the machine a program's stream one op per batch.
type unbatched struct{ p trace.Program }

func (u unbatched) Next(fb trace.Feedback) trace.Op { return u.p.Next(fb) }

func (u unbatched) NextBatch(dst []trace.Op, fb trace.Feedback) int {
	dst[0] = u.p.Next(fb)
	return 1
}

// TestIntervalsUnbatchedProgram covers snapshots at one-op-batch
// granularity.
func TestIntervalsUnbatchedProgram(t *testing.T) {
	cfg := sim.Default().WithCores(1)
	progs := []trace.Program{unbatched{trace.NewSliceProgram(sliceOps(600))}}
	res, err := sim.Run(cfg, progs, sim.WithIntervals(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 5 {
		t.Fatalf("want >=5 snapshots for 601 unbatched ops every 100, got %d", len(res.Intervals))
	}
	if res.Intervals[len(res.Intervals)-1].Ops != res.TotalOps {
		t.Fatal("final snapshot does not cover the full op stream")
	}
}

// sliceOps builds n compute ops followed by an end marker.
func sliceOps(n int) []trace.Op {
	ops := make([]trace.Op, 0, n+1)
	for i := 0; i < n; i++ {
		ops = append(ops, trace.Op{Kind: trace.KindCompute, N: 8})
	}
	return append(ops, trace.Op{Kind: trace.KindEnd})
}
