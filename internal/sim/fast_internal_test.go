package sim

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestFastModeSkipsWork sanity-checks that fast mode actually samples: only
// the detailed-set subset reaches the memory controller, so fast mode issues
// far fewer DRAM accesses than exact mode for the same op stream.
func TestFastModeSkipsWork(t *testing.T) {
	streams := func() []trace.Program {
		progs := make([]trace.Program, 8)
		for tid := range progs {
			ops := make([]trace.Op, 0, 2*8192)
			for i := 0; i < 8192; i++ { // 4 MB in all: twice the LLC
				ops = append(ops, trace.Compute(20), trace.Load(uint64(0x1000_0000+(tid*8192+i)*64), 0x400))
			}
			progs[tid] = trace.NewSliceProgram(ops)
		}
		return progs
	}
	run := func(mode Mode) (Result, mem.Stats) {
		m, err := NewMachine(Default().WithCores(8).WithMode(mode), streams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, m.memc.Stats()
	}
	exact, exactMem := run(ModeExact)
	fast, fastMem := run(ModeFast)
	if fastMem.Accesses*2 > exactMem.Accesses {
		t.Errorf("fast mode did not reduce memory traffic: %d vs %d DRAM accesses",
			fastMem.Accesses, exactMem.Accesses)
	}
	if fast.TotalOps != exact.TotalOps {
		t.Errorf("fast mode changed the op stream: %d vs %d ops", fast.TotalOps, exact.TotalOps)
	}
}
