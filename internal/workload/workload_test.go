package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/syncprim"
	"repro/internal/trace"
)

// TestSyncIDsWithinTraceBound holds the largest sync id a valid spec makes
// a generator emit to trace.MaxSyncID, so every valid spec records: a
// data-parallel phase barrier (Phases <= maxCount), a lock (NumLocks <=
// maxLocks) and a pipeline stage barrier (2000 + stage, at most maxStages).
func TestSyncIDsWithinTraceBound(t *testing.T) {
	for what, id := range map[string]int{"phase barrier": maxCount - 1, "lock": maxLocks - 1, "stage barrier": 2000 + maxStages - 1} {
		if id > trace.MaxSyncID {
			t.Errorf("the largest %s id, %d, is past trace.MaxSyncID %d", what, id, trace.MaxSyncID)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 28 {
		t.Fatalf("registry holds %d benchmarks, want 28 (paper Figure 6)", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if err := b.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", b.FullName(), err)
		}
		if seen[b.FullName()] {
			t.Errorf("duplicate benchmark %s", b.FullName())
		}
		seen[b.FullName()] = true
		if b.PaperSpeedup16 <= 0 || b.PaperSpeedup16 > 16 {
			t.Errorf("%s: implausible paper speedup %v", b.FullName(), b.PaperSpeedup16)
		}
	}
	// The paper's suites are all represented.
	suites := map[string]int{}
	for _, b := range all {
		suites[b.Spec.Suite]++
	}
	for _, s := range []string{"splash2", "parsec_small", "parsec_medium", "rodinia"} {
		if suites[s] == 0 {
			t.Errorf("suite %s missing", s)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("cholesky_splash2"); !ok {
		t.Fatal("full name lookup failed")
	}
	if b, ok := ByName("cholesky"); !ok || b.Spec.Name != "cholesky" {
		t.Fatal("short name lookup failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("bogus name found")
	}
}

func TestWorkSharesProperties(t *testing.T) {
	f := func(tRaw, eRaw uint8) bool {
		threads := int(tRaw%31) + 1
		eff := float64(eRaw%40)/2 + 0.5
		shares := workShares(threads, eff)
		sum := 0.0
		prev := math.Inf(1)
		for _, s := range shares {
			if s < 0 || s > prev+1e-12 {
				return false // must be non-negative and non-increasing
			}
			prev = s
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkSharesSaturation(t *testing.T) {
	// The implied speedup 1/maxShare approximates EffectiveParallelism.
	for _, eff := range []float64{3, 6, 10} {
		shares := workShares(16, eff)
		implied := 1 / shares[0]
		if implied < eff*0.8 || implied > eff*1.2 {
			t.Errorf("eff=%v: implied parallelism %v", eff, implied)
		}
	}
	// Balanced cases.
	for _, eff := range []float64{0, 16, 100} {
		shares := workShares(16, eff)
		if math.Abs(shares[0]-1.0/16) > 1e-9 {
			t.Errorf("eff=%v not balanced: %v", eff, shares[0])
		}
	}
}

func TestSplitIntsExact(t *testing.T) {
	f := func(totalRaw uint16, n uint8) bool {
		total := int(totalRaw)
		parts := splitInts(total, workShares(int(n%15)+1, 5))
		sum := 0
		for _, p := range parts {
			if p < 0 {
				return false
			}
			sum += p
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countWork drains a program and tallies instructions and memory ops.
func countWork(t *testing.T, p trace.Program) (instr, overhead, mem uint64) {
	t.Helper()
	fb := trace.Feedback{PopOK: true}
	for i := 0; i < 100_000_000; i++ {
		op := p.Next(fb)
		switch op.Kind {
		case trace.KindEnd:
			return
		case trace.KindCompute:
			instr += uint64(op.N)
			if op.Overhead {
				overhead += uint64(op.N)
			}
		case trace.KindLoad, trace.KindStore:
			instr += uint64(op.N)
			mem++
		case trace.KindPop:
			// Out of the simulator, pretend pops always succeed; producers
			// in this test are not connected.
		}
	}
	t.Fatal("program did not terminate")
	return
}

func TestDataParallelWorkConservation(t *testing.T) {
	b, _ := ByName("facesim_parsec_medium")
	seq, err := b.Spec.Sequential()
	if err != nil {
		t.Fatal(err)
	}
	seqInstr, seqOvh, seqMem := countWork(t, seq)
	if seqOvh != 0 {
		t.Fatalf("sequential reference has %d overhead instructions", seqOvh)
	}
	progs, err := b.Spec.Parallel(8)
	if err != nil {
		t.Fatal(err)
	}
	var mtInstr, mtOvh, mtMem uint64
	for _, p := range progs {
		i, o, m := countWork(t, p)
		mtInstr += i
		mtOvh += o
		mtMem += m
	}
	if mtMem != seqMem {
		t.Fatalf("memory ops differ: MT %d vs ST %d", mtMem, seqMem)
	}
	// Useful work identical; MT adds only the flagged overhead.
	if mtInstr-mtOvh != seqInstr {
		t.Fatalf("useful instructions differ: MT %d vs ST %d",
			mtInstr-mtOvh, seqInstr)
	}
}

func TestTaskQueueWorkConservation(t *testing.T) {
	b, _ := ByName("freqmine_parsec_small")
	seq, _ := b.Spec.Sequential()
	seqInstr, _, seqMem := countWork(t, seq)
	progs, _ := b.Spec.Parallel(4)
	var mtInstr, mtOvh, mtMem uint64
	for _, p := range progs {
		i, o, m := countWork(t, p)
		mtInstr += i
		mtOvh += o
		mtMem += m
	}
	if mtMem != seqMem {
		t.Fatalf("memory ops differ: MT %d vs ST %d", mtMem, seqMem)
	}
	if mtInstr-mtOvh != seqInstr {
		t.Fatalf("useful instructions differ: MT %d vs ST %d", mtInstr-mtOvh, seqInstr)
	}
}

func TestProgramDeterminism(t *testing.T) {
	b, _ := ByName("canneal_parsec_small")
	mk := func() (uint64, uint64, uint64) {
		progs, _ := b.Spec.Parallel(4)
		var i, o, m uint64
		for _, p := range progs {
			pi, po, pm := countWork(t, p)
			i, o, m = i+pi, o+po, m+pm
		}
		return i, o, m
	}
	i1, o1, m1 := mk()
	i2, o2, m2 := mk()
	if i1 != i2 || o1 != o2 || m1 != m2 {
		t.Fatal("generators are not deterministic")
	}
}

func TestPipelinePlanCoversAllThreads(t *testing.T) {
	stages := []StageSpec{
		{Weight: 0.3, Serial: true}, {Weight: 0.3}, {Weight: 0.3},
		{Weight: 0.1, Serial: true},
	}
	for threads := 2; threads <= 24; threads++ {
		eff, nStage := pipelinePlan(stages, threads)
		total := 0
		for _, n := range nStage {
			if n <= 0 {
				t.Fatalf("threads=%d: empty stage", threads)
			}
			total += n
		}
		if total < threads {
			t.Fatalf("threads=%d: only %d assigned", threads, total)
		}
		wsum := 0.0
		for _, m := range eff {
			wsum += m.Weight
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Fatalf("threads=%d: weights sum to %v", threads, wsum)
		}
		if threads >= len(stages) && len(eff) != len(stages) {
			t.Fatalf("threads=%d: stages merged unnecessarily", threads)
		}
		if threads < len(stages) && len(eff) != threads {
			t.Fatalf("threads=%d: eff stages %d", threads, len(eff))
		}
	}
}

func TestPipelineSerialStagesGetOneThread(t *testing.T) {
	stages := []StageSpec{
		{Weight: 0.3, Serial: true}, {Weight: 0.4}, {Weight: 0.2},
		{Weight: 0.1, Serial: true},
	}
	_, nStage := pipelinePlan(stages, 16)
	if nStage[0] != 1 || nStage[3] != 1 {
		t.Fatalf("serial stages got %d and %d threads", nStage[0], nStage[3])
	}
	if nStage[1]+nStage[2] != 14 {
		t.Fatalf("middle stages got %d threads", nStage[1]+nStage[2])
	}
}

func TestStageOfRoundTrip(t *testing.T) {
	nStage := []int{1, 7, 7, 1}
	counts := make([]int, 4)
	for tid := 0; tid < 16; tid++ {
		s, r := stageOf(nStage, tid)
		if r < 0 || r >= nStage[s] {
			t.Fatalf("tid %d: rank %d out of range for stage %d", tid, r, s)
		}
		counts[s]++
	}
	for s, n := range nStage {
		if counts[s] != n {
			t.Fatalf("stage %d received %d threads, want %d", s, counts[s], n)
		}
	}
}

func TestTunePolicyOverrides(t *testing.T) {
	b, _ := ByName("cholesky_splash2") // SPLASH-2 spin locks
	base := b.Spec.TunePolicy(defaultTestPolicy())
	if base.LockSpinGrace != 1<<40 {
		t.Fatalf("lock grace override missing: %d", base.LockSpinGrace)
	}
	b2, _ := ByName("facesim_parsec_medium")
	p := b2.Spec.TunePolicy(defaultTestPolicy())
	if p.LockSpinGrace != defaultTestPolicy().LockSpinGrace {
		t.Fatal("unexpected override for pthread benchmark")
	}
}

func TestPowAgainstMath(t *testing.T) {
	for _, base := range []float64{0.1, 0.5, 0.9375, 1, 2, 7.3} {
		for _, exp := range []float64{0, 0.5, 1, 1.67, 2, 3.25} {
			got := pow(base, exp)
			want := math.Pow(base, exp)
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("pow(%v,%v) = %v, want %v", base, exp, got, want)
			}
		}
	}
}

func TestValidateRejectsBrokenSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "x", Kind: KindDataParallel},                   // no array
		{Name: "x", Kind: KindTaskQueue},                      // no items
		{Name: "x", Kind: KindPipeline, Items: 10},            // no stages
		{Name: "x", Kind: Kind(99), ArrayBytes: 1, Phases: 1}, // unknown kind
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func defaultTestPolicy() syncprim.Policy { return syncprim.DefaultPolicy() }
