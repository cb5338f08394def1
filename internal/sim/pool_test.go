package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// poolTestProgs builds a deterministic multi-threaded program mix touching
// every machine subsystem a reset must restore: caches (loads/stores over
// more lines than the L1 holds), locks, barriers, queues, and compute.
func poolTestProgs() []trace.Program {
	progs := make([]trace.Program, 4)
	for tid := range progs {
		var ops []trace.Op
		for i := 0; i < 3000; i++ {
			addr := uint64(0x1000_0000 + ((tid*3000+i)%4096)*64)
			ops = append(ops, trace.Compute(200), trace.Load(addr, 0x400))
			if i%64 == 0 {
				ops = append(ops, trace.Store(uint64(0x2000_0000+(i%32)*64), 0x404))
			}
			if i%128 == 0 {
				ops = append(ops, trace.Lock(2), trace.Compute(64), trace.Unlock(2))
			}
			if i%512 == 0 {
				ops = append(ops, trace.Barrier(7))
			}
		}
		progs[tid] = trace.NewSliceProgram(ops)
	}
	return progs
}

// TestPoolResetDeterminism pins the pooling contract: a machine recycled
// through reset must produce a Result deeply equal to a freshly
// constructed machine's for the same (config, programs). A field added to
// any pooled component but missed in its Reset fails here.
func TestPoolResetDeterminism(t *testing.T) {
	cfg := Default().WithCores(4)

	fresh, err := NewMachine(cfg, poolTestProgs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool()
	// First pass populates the pool; second and third pass run on the
	// recycled (reset) machine.
	for pass := 1; pass <= 3; pass++ {
		got, err := p.Run(cfg, poolTestProgs())
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: pooled result differs from fresh machine:\n got %+v\nwant %+v",
				pass, got, want)
		}
	}

	// Cross-workload reuse: run a different program mix on the pooled
	// machine, then the original again; leakage from the interleaved run
	// would perturb the repeat.
	other := func() []trace.Program {
		var ops []trace.Op
		for i := 0; i < 5000; i++ {
			ops = append(ops, trace.Compute(50), trace.Store(uint64(0x3000_0000+(i%8192)*64), 0x500))
		}
		return []trace.Program{trace.NewSliceProgram(ops), trace.NewSliceProgram(ops)}
	}
	if _, err := p.Run(cfg, other()); err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(cfg, poolTestProgs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled result differs after interleaved foreign workload: reset leaks state")
	}
}

// TestPoolKeyIgnoresPolicy pins what the pool keys on: configurations that
// differ only in Policy — which an inline spec's client-chosen lock_grace
// reaches — share one entry and one recycled machine, reset installs each
// run's policy, and every result equals a fresh machine's. Keyed on the
// whole Config the map grew by one never-removed entry, and one fresh
// multi-megabyte machine, per distinct grace.
func TestPoolKeyIgnoresPolicy(t *testing.T) {
	p := NewPool()
	var results []Result
	for i := 0; i < 8; i++ {
		cfg := Default().WithCores(4)
		cfg.Policy.LockSpinGrace = uint64(50 << i)
		fresh, err := NewMachine(cfg, poolTestProgs())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(cfg, poolTestProgs())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("grace %d: pooled result differs from a fresh machine's", cfg.Policy.LockSpinGrace)
		}
		results = append(results, got)
	}
	if len(p.pools) != 1 {
		t.Fatalf("%d pool entries after 8 lock graces on one machine shape, want 1", len(p.pools))
	}
	if reflect.DeepEqual(results[0], results[7]) {
		t.Fatal("lock grace 50 and 6400 gave one result: the run's policy was not installed")
	}
}

// TestSingleQuantumHorizon pins the MaxCycles boundary of the single-pass
// sequential fast path: it must match the quantum-stepped loop's effective
// horizon, so a run finishing inside the final partial quantum completes.
func TestSingleQuantumHorizon(t *testing.T) {
	cfg := Default().WithCores(1)
	cfg.Quantum = 300
	cfg.MaxCycles = 1000
	// One compute burst of 4400 instructions = 1100 cycles at width 4:
	// past MaxCycles but inside the stepped loop's 1200-cycle horizon.
	res, err := Run(cfg, []trace.Program{trace.NewSliceProgram([]trace.Op{trace.Compute(4400)})})
	if err != nil {
		t.Fatalf("run inside the final partial quantum must complete: %v", err)
	}
	if res.Tp != 1100 {
		t.Fatalf("Tp = %d, want 1100", res.Tp)
	}
	// Past the horizon it must still error.
	cfg.MaxCycles = 900
	if _, err := Run(cfg, []trace.Program{trace.NewSliceProgram([]trace.Op{trace.Compute(8000)})}); err == nil {
		t.Fatal("run past the horizon must fail with MaxCycles exceeded")
	}
}
