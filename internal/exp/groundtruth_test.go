package exp

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// groundTruthBounds bounds |Δ component| / Tp (speedup units) between the
// default machine's set-sampled estimate (ATDSampleShift 5, 1 set in 32) and
// the same cell at ATDSampleShift 0, over all 28 analogues at 16 threads and
// the ablation probe set at 4. Observed worst cases: NegLLC 0.0675
// (bfs_rodinia x16), PosLLC 0.1574 (ferret_parsec_medium x16), NegMem 0.1063
// (srad_rodinia x16); the bounds carry ~30 % headroom (the
// sim.FastErrorBounds idiom): a refactor keeps them, a broken extrapolation
// does not.
var groundTruthBounds = struct{ NegLLC, PosLLC, NegMem float64 }{
	NegLLC: 0.09,
	PosLLC: 0.21,
	NegMem: 0.14,
}

// atdFree returns t with every counter the tag directory feeds zeroed: what
// remains must not depend on how many sets the directory monitors.
func atdFree(t core.ThreadCounters) core.ThreadCounters {
	t.SampledATDAccesses = 0
	t.SampledInterThreadMissStall = 0
	t.SampledInterThreadHits = 0
	t.SampledInterThreadMissMemInterf = 0
	return t
}

// TestGroundTruthIsSampleShiftZero pins what lets a machine carry one tag
// directory per core and no oracle: the same cell at ATDSampleShift 0 is the
// ground truth of any sampled run. Accounting is invisible to timing, so
// everything but the ATD-derived counters is equal between the two shifts;
// at shift 0 every sampling factor is exactly 1 and Result.Oracle's LLC and
// memory terms are Result.Estimated's; and the sampled estimate stays within
// groundTruthBounds of that truth.
func TestGroundTruthIsSampleShiftZero(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep at two sample shifts")
	}
	e := sharedEngine()
	ctx := context.Background()
	var cells []Cell
	for _, b := range workload.All() {
		cells = append(cells, Cell{Bench: b.FullName(), Threads: 16})
	}
	for _, name := range ablationProbeSet {
		cells = append(cells, Cell{Bench: name, Threads: 4})
	}
	sampled, err := e.Sweep(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	full := e.Config()
	full.ATDSampleShift = 0
	truth, err := e.Do(ctx, onMachine(full, cells))
	if err != nil {
		t.Fatal(err)
	}

	var worst struct{ NegLLC, PosLLC, NegMem float64 }
	for i, c := range cells {
		s, g := sampled[i], truth[i]
		name := c.Bench
		if s.Ts != g.Ts || s.Tp != g.Tp || s.Result.TotalOps != g.Result.TotalOps {
			t.Errorf("%s x%d: timing depends on the sample shift: Ts %d/%d Tp %d/%d ops %d/%d",
				name, c.Threads, s.Ts, g.Ts, s.Tp, g.Tp, s.Result.TotalOps, g.Result.TotalOps)
		}
		for tid := range g.Result.PerThread {
			st, gt := s.Result.PerThread[tid], g.Result.PerThread[tid]
			if atdFree(st) != atdFree(gt) {
				t.Errorf("%s x%d thread %d: non-ATD counters depend on the sample shift:\n%+v\n%+v",
					name, c.Threads, tid, st, gt)
			}
			if gt.SampledATDAccesses != gt.LLCAccesses || gt.DetailedLLCAccesses != gt.LLCAccesses {
				t.Errorf("%s x%d thread %d: shift 0 sampled %d, walked %d of %d LLC accesses; every factor must be exactly 1",
					name, c.Threads, tid, gt.SampledATDAccesses, gt.DetailedLLCAccesses, gt.LLCAccesses)
			}
		}
		ge, gor := g.Result.Estimated, g.Result.Oracle
		if gor.NegLLC != ge.NegLLC || gor.PosLLC != ge.PosLLC || gor.NegMem != ge.NegMem {
			t.Errorf("%s x%d: shift-0 oracle LLC and memory terms %v/%v/%v differ from the estimate's %v/%v/%v",
				name, c.Threads, gor.NegLLC, gor.PosLLC, gor.NegMem, ge.NegLLC, ge.PosLLC, ge.NegMem)
		}

		tp, se := float64(g.Tp), s.Result.Estimated
		for _, d := range []struct {
			comp         string
			delta, bound float64
			worst        *float64
		}{
			{"NegLLC", se.NegLLC - ge.NegLLC, groundTruthBounds.NegLLC, &worst.NegLLC},
			{"PosLLC", se.PosLLC - ge.PosLLC, groundTruthBounds.PosLLC, &worst.PosLLC},
			{"NegMem", se.NegMem - ge.NegMem, groundTruthBounds.NegMem, &worst.NegMem},
		} {
			dev := math.Abs(d.delta) / tp
			if dev > d.bound {
				t.Errorf("%s x%d: sampled %s is %.4f from ground truth, bound %.2f",
					name, c.Threads, d.comp, dev, d.bound)
			}
			*d.worst = max(*d.worst, dev)
		}
	}
	t.Logf("observed maxima over %d cells: NegLLC %.4f PosLLC %.4f NegMem %.4f",
		len(cells), worst.NegLLC, worst.PosLLC, worst.NegMem)
}
