package sim

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/trace"
)

// smallConfig returns a fast configuration for engine tests.
func smallConfig(cores int) Config {
	cfg := Default()
	cfg.Cores = cores
	cfg.MaxCycles = 200_000_000
	return cfg
}

// computeOnly builds a program of n compute bursts of width instructions.
func computeOnly(bursts int, width uint32) trace.Program {
	ops := make([]trace.Op, 0, bursts+1)
	for i := 0; i < bursts; i++ {
		ops = append(ops, trace.Compute(width))
	}
	return trace.NewSliceProgram(ops)
}

// feedbackProgram is a test program whose every batch is the one op next
// computes from the latest feedback.
type feedbackProgram struct{ next func(trace.Feedback) trace.Op }

func (p feedbackProgram) Next(fb trace.Feedback) trace.Op { return p.next(fb) }

func (p feedbackProgram) NextBatch(dst []trace.Op, fb trace.Feedback) int {
	dst[0] = p.next(fb)
	return 1
}

func TestComputeOnlySingleThread(t *testing.T) {
	cfg := smallConfig(1)
	res, err := Run(cfg, []trace.Program{computeOnly(1000, 400)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != 1001 { // the bursts and the end marker
		t.Fatalf("ops = %d, want 1001", res.TotalOps)
	}
	// 400k instructions at width 4 = 100k cycles.
	wantCycles := uint64(1000*400) / cpu.DispatchWidth
	if res.Tp != wantCycles {
		t.Fatalf("Tp = %d, want %d", res.Tp, wantCycles)
	}
}

func TestComputeOnlyPerfectScaling(t *testing.T) {
	cfg := smallConfig(4)
	seq, err := RunSequential(cfg, computeOnly(4000, 400))
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]trace.Program, 4)
	for i := range progs {
		progs[i] = computeOnly(1000, 400)
	}
	par, err := Run(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	s := float64(seq.Tp) / float64(par.Tp)
	if s < 3.99 || s > 4.01 {
		t.Fatalf("speedup = %.3f, want ~4 (seq=%d par=%d)", s, seq.Tp, par.Tp)
	}
	est := par.Stack(0).Estimated()
	if est < 3.9 || est > 4.01 {
		t.Fatalf("estimated speedup = %.3f, want ~4", est)
	}
}

func TestBarrierReleasesAllThreads(t *testing.T) {
	cfg := smallConfig(4)
	progs := make([]trace.Program, 4)
	for i := range progs {
		// Thread i computes i+1 blocks then hits the barrier; everyone then
		// computes one more block.
		ops := []trace.Op{}
		for k := 0; k <= i; k++ {
			ops = append(ops, trace.Compute(40_000))
		}
		ops = append(ops, trace.Barrier(0), trace.Compute(40_000))
		progs[i] = trace.NewSliceProgram(ops)
	}
	res, err := Run(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 waited ~3 blocks at the barrier: waiting time must show up
	// as spin + yield.
	ct := res.PerThread[0]
	wait := ct.OracleSpinCycles + ct.YieldCycles
	if wait < 20_000 {
		t.Fatalf("thread 0 wait = %d cycles, want >= 20000", wait)
	}
}

func TestLockMutualExclusionTiming(t *testing.T) {
	cfg := smallConfig(2)
	mk := func() trace.Program {
		ops := []trace.Op{
			trace.Lock(1), trace.Compute(40_000), trace.Unlock(1),
		}
		return trace.NewSliceProgram(ops)
	}
	res, err := Run(cfg, []trace.Program{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	// Critical sections serialize: Tp must be at least 2 CS lengths.
	if res.Tp < 2*10_000 {
		t.Fatalf("Tp = %d, want >= 20000 (serialized critical sections)", res.Tp)
	}
	// One thread must have waited.
	wait := uint64(0)
	for _, ct := range res.PerThread {
		wait += ct.OracleSpinCycles + ct.YieldCycles
	}
	if wait < 8_000 {
		t.Fatalf("aggregate sync wait = %d, want >= 8000", wait)
	}
}

func TestQueuePipelineCompletes(t *testing.T) {
	cfg := smallConfig(2)
	items := 200
	sent := 0
	producer := feedbackProgram{func(trace.Feedback) trace.Op {
		if sent < items {
			sent++
			if sent%2 == 1 {
				return trace.Compute(1000)
			}
			return trace.Push(7)
		}
		if sent == items {
			sent++
			return trace.CloseQueue(7)
		}
		return trace.End()
	}}
	state := 0
	consumer := feedbackProgram{func(fb trace.Feedback) trace.Op {
		switch state {
		case 0:
			state = 1
			return trace.Pop(7)
		case 1:
			if !fb.PopOK {
				return trace.End()
			}
			state = 0
			return trace.Compute(2000)
		}
		return trace.End()
	}}
	res, err := Run(cfg, []trace.Program{producer, consumer}, WithQueue(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp == 0 {
		t.Fatal("pipeline run produced zero cycles")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig(4)
	build := func() []trace.Program {
		progs := make([]trace.Program, 4)
		for i := range progs {
			rng := trace.NewRNG(uint64(42 + i))
			n := 0
			progs[i] = feedbackProgram{func(trace.Feedback) trace.Op {
				if n >= 2000 {
					return trace.End()
				}
				n++
				if rng.Bool(0.3) {
					return trace.Load(rng.Uint64n(1<<22), 0x1000+uint64(n%7)*4)
				}
				return trace.Compute(uint32(20 + rng.Intn(80)))
			}}
		}
		return progs
	}
	r1, err := Run(cfg, build())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, build())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tp != r2.Tp || r1.TotalOps != r2.TotalOps {
		t.Fatalf("nondeterministic: Tp %d vs %d, ops %d vs %d",
			r1.Tp, r2.Tp, r1.TotalOps, r2.TotalOps)
	}
	if r1.Stack(0).Estimated() != r2.Stack(0).Estimated() {
		t.Fatalf("nondeterministic estimate: %v vs %v",
			r1.Stack(0).Estimated(), r2.Stack(0).Estimated())
	}
}
