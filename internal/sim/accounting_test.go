package sim_test

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runBench is a helper running a registered workload end to end.
func runBench(t *testing.T, name string, threads int) sim.Result {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	cfg := sim.Default().WithCores(threads)
	cfg.Policy = b.Spec.TunePolicy(cfg.Policy)
	progs, err := b.Spec.Parallel(threads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, progs, b.Spec.PipelineOptions(threads)...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEstimatedSpeedupWithinBounds(t *testing.T) {
	for _, name := range []string{"lud_rodinia", "canneal_parsec_small", "ferret_parsec_small"} {
		res := runBench(t, name, 8)
		est := res.Stack(0).Estimated()
		if est < 0 || est > float64(res.Threads)+0.01 {
			t.Errorf("%s: estimated speedup %v out of [0, N]", name, est)
		}
	}
}

func TestComponentsNonNegative(t *testing.T) {
	res := runBench(t, "facesim_parsec_small", 8)
	c := res.Estimated
	for name, v := range map[string]float64{
		"negLLC": c.NegLLC, "posLLC": c.PosLLC, "negMem": c.NegMem,
		"spin": c.Spin, "yield": c.Yield, "imbalance": c.Imbalance,
	} {
		if v < 0 {
			t.Errorf("component %s negative: %v", name, v)
		}
	}
}

func TestPerThreadFinishBoundsTp(t *testing.T) {
	res := runBench(t, "bodytrack_parsec_small", 4)
	for i, ct := range res.PerThread {
		if ct.FinishTime > res.Tp {
			t.Errorf("thread %d finished after Tp: %d > %d", i, ct.FinishTime, res.Tp)
		}
	}
}

func TestSpinDetectedNeverExceedsTruthMuch(t *testing.T) {
	// The Tian detector can only miss episodes (below threshold) or match
	// them; it must never charge more than the true spin time.
	res := runBench(t, "cholesky_splash2", 8)
	var det, truth uint64
	for _, ct := range res.PerThread {
		det += ct.SpinDetected
		truth += ct.OracleSpinCycles
	}
	if det > truth {
		t.Fatalf("detected spin %d exceeds ground truth %d", det, truth)
	}
	if truth > 0 && det == 0 {
		t.Fatal("spin-heavy benchmark detected no spinning at all")
	}
}

func TestSequentialRunHasNoInterference(t *testing.T) {
	b, _ := workload.ByName("facesim_parsec_small")
	prog, err := b.Spec.Sequential()
	if err != nil {
		t.Fatal(err)
	}
	// sim.Run, not RunSequential: the reference runs with the accounting
	// hardware off, and this test reads what the hardware reports.
	res, err := sim.Run(sim.Default().WithCores(1), []trace.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Estimated
	if c.NegLLC != 0 || c.PosLLC != 0 || c.Spin != 0 || c.Yield != 0 {
		t.Fatalf("single-threaded run shows interference: %+v", c)
	}
	if c.NegMem != 0 {
		t.Fatalf("single-threaded run shows memory interference: %v", c.NegMem)
	}
}

func TestThreadsExceedCores(t *testing.T) {
	b, _ := workload.ByName("ferret_parsec_small")
	cfg := sim.Default().WithCores(4)
	cfg.Policy = b.Spec.TunePolicy(cfg.Policy)
	progs, err := b.Spec.Parallel(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, progs, b.Spec.PipelineOptions(16)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 16 || res.Cores != 4 {
		t.Fatalf("run shape %d threads / %d cores", res.Threads, res.Cores)
	}
	// Every oversubscribed thread must get a core and run to its end.
	for i, ct := range res.PerThread {
		if ct.FinishTime == 0 || ct.FinishTime > res.Tp {
			t.Fatalf("thread %d finished at %d of Tp %d", i, ct.FinishTime, res.Tp)
		}
	}
}

func TestLargerLLCReducesNegativeInterference(t *testing.T) {
	b, _ := workload.ByName("facesim_parsec_small")
	run := func(llc int64) float64 {
		cfg := sim.Default().WithCores(16).WithLLCSize(llc)
		cfg.Policy = b.Spec.TunePolicy(cfg.Policy)
		progs, _ := b.Spec.Parallel(16)
		res, err := sim.Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimated.NegLLC / float64(res.Tp)
	}
	small, large := run(2<<20), run(16<<20)
	if large >= small {
		t.Fatalf("negative interference did not shrink: 2MB=%v 16MB=%v", small, large)
	}
}

func TestMoreThreadsMoreOverheadInstrs(t *testing.T) {
	b, _ := workload.ByName("swaptions_parsec_small") // 26% overhead at 16T
	count := func(threads int) uint64 {
		progs, _ := b.Spec.Parallel(threads)
		cfg := sim.Default().WithCores(threads)
		res, err := sim.Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		var n uint64
		for _, ct := range res.PerThread {
			n += ct.OverheadInstrs
		}
		return n
	}
	if c2, c16 := count(2), count(16); c16 <= c2 {
		t.Fatalf("overhead instrs did not grow with threads: 2T=%d 16T=%d", c2, c16)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := sim.Default()
	cfg.Cores = 0
	if _, err := sim.Run(cfg, []trace.Program{trace.NewSliceProgram(nil)}); err == nil {
		t.Fatal("zero cores accepted")
	}
	cfg = sim.Default()
	if _, err := sim.Run(cfg, nil); err == nil {
		t.Fatal("no programs accepted")
	}
}

// TestLineSizesMustMatch: the inclusive hierarchy maps victims between L1
// and LLC through one line address, so Validate rejects a machine whose
// L1, LLC and memory line sizes differ, naming the fields.
func TestLineSizesMustMatch(t *testing.T) {
	if err := sim.Default().Validate(); err != nil {
		t.Fatalf("default machine rejected: %v", err)
	}
	cfg := sim.Default()
	cfg.L1.LineBytes = 32
	err := cfg.Validate()
	if err == nil {
		t.Fatal("32/64/64-byte L1/LLC/memory lines accepted")
	}
	for _, field := range []string{"L1.LineBytes", "LLC.LineBytes", "Mem.LineBytes"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name %s", err, field)
		}
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := sim.Default().WithCores(1)
	cfg.MaxCycles = 10_000
	// A thread that waits forever on a barrier nobody else joins.
	progs := []trace.Program{trace.NewSliceProgram([]trace.Op{trace.Barrier(1)})}
	if _, err := sim.Run(cfg, progs, sim.WithBarrier(1, 2)); err == nil {
		t.Fatal("deadlocked run did not error out")
	}
}

func TestStackAttachesActualSpeedup(t *testing.T) {
	res := runBench(t, "lud_rodinia", 4)
	s := res.Stack(4 * res.Tp)
	if s.ActualSpeedup != 4.0 {
		t.Fatalf("actual speedup = %v, want 4", s.ActualSpeedup)
	}
	if s2 := res.Stack(0); s2.ActualSpeedup != 0 {
		t.Fatal("zero Ts should leave actual speedup unset")
	}
}
