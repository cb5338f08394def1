package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
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

	var p Pool
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

// shapeProgs is poolTestProgs' mix at a scale where the cache geometry
// shows: every thread alternates loads of a 96 KiB hot region, which fits
// some of the L1 sizes the cross-shape test sets and not others, with
// random loads and stores over an 8 MiB region, whose lines every LLC
// geometry the test sets maps and evicts differently, between the shared
// store, the lock and the barrier poolTestProgs uses.
func shapeProgs() []trace.Program {
	progs := make([]trace.Program, 4)
	for tid := range progs {
		rng := trace.NewRNG(uint64(tid + 1))
		var ops []trace.Op
		for i := 0; i < 6_000; i++ {
			far := uint64(0x4000_0000 + rng.Intn(8<<20/64)*64)
			ops = append(ops, trace.Compute(100), trace.Load(uint64(0x1000_0000+rng.Intn(96<<10/64)*64), 0x400))
			if i%4 == 0 {
				ops = append(ops, trace.Store(far, 0x408))
			} else {
				ops = append(ops, trace.Load(far, 0x40c))
			}
			if i%64 == 0 {
				ops = append(ops, trace.Store(uint64(0x2000_0000+(i%32)*64), 0x404))
			}
			if i%128 == 0 {
				ops = append(ops, trace.Lock(2), trace.Compute(64), trace.Unlock(2))
			}
			if i%2048 == 0 {
				ops = append(ops, trace.Barrier(7))
			}
		}
		progs[tid] = trace.NewSliceProgram(ops)
	}
	return progs
}

// resetSteps is the fixed sequence TestMachineResetAcrossShapes resets one
// machine through. Each step changes Default().WithCores(4), in a way that
// moves a run of shapeProgs (MaxCycles: makes it fail). In order, the
// steps grow and shrink every dimension that sizes storage: cores
// 1 → 16 → 2 (then 4, inside the 16-core capacity), the LLC
// 2 → 16 → 4 → 8 MiB (the last inside the 16 MiB capacity), then the
// largest shape in fast mode, the L1, the associativities, the line size,
// the banks, the row size and the ATD sample; then the mode, and every
// field that sizes nothing.
var resetSteps = []struct {
	name   string
	change func(*Config)
}{
	{"1 core", func(c *Config) { c.Cores = 1 }},
	{"16 cores", func(c *Config) { c.Cores = 16 }},
	{"2 cores", func(c *Config) { c.Cores = 2 }},
	{"16 MiB LLC", func(c *Config) { c.LLC.SizeBytes = 16 << 20 }},
	{"4 MiB LLC", func(c *Config) { c.LLC.SizeBytes = 4 << 20 }},
	{"8 MiB LLC", func(c *Config) { c.LLC.SizeBytes = 8 << 20 }},
	{"16 cores, 16 MiB LLC, fast", func(c *Config) { c.Cores, c.LLC.SizeBytes, c.Mode = 16, 16<<20, ModeFast }},
	{"128 KiB L1", func(c *Config) { c.L1.SizeBytes = 128 << 10 }},
	{"32 KiB L1", func(c *Config) { c.L1.SizeBytes = 32 << 10 }},
	{"16-way L1", func(c *Config) { c.L1.Ways = 16 }},
	{"32-way LLC", func(c *Config) { c.LLC.Ways = 32 }},
	{"4-way LLC", func(c *Config) { c.LLC.Ways = 4 }},
	{"128-byte lines", func(c *Config) { c.L1.LineBytes, c.LLC.LineBytes, c.Mem.LineBytes = 128, 128, 128 }},
	{"32-byte lines", func(c *Config) { c.L1.LineBytes, c.LLC.LineBytes, c.Mem.LineBytes = 32, 32, 32 }},
	{"16 banks", func(c *Config) { c.Mem.Banks = 16 }},
	{"2 banks", func(c *Config) { c.Mem.Banks = 2 }},
	{"8 KiB rows", func(c *Config) { c.Mem.RowBytes = 8 << 10 }},
	{"1 KiB rows", func(c *Config) { c.Mem.RowBytes = 1 << 10 }},
	{"every set sampled", func(c *Config) { c.ATDSampleShift = 0 }},
	{"1 set in 128 sampled", func(c *Config) { c.ATDSampleShift = 7 }},
	{"fast", func(c *Config) { c.Mode = ModeFast }},
	{"halved memory latency", func(c *Config) {
		c.Mem.BusCycles, c.Mem.RowHitCycles, c.Mem.RowMissCycles = c.Mem.BusCycles/2, c.Mem.RowHitCycles/2, c.Mem.RowMissCycles/2
	}},
	{"quantum", func(c *Config) { c.Quantum = 37 }},
	{"cycle cap", func(c *Config) { c.MaxCycles = 50_000 }},
	{"spin threshold", func(c *Config) { c.Spin.Threshold = 2 }},
	{"lock grace", func(c *Config) { c.Policy.LockSpinGrace = 50 }},
	{"barrier grace", func(c *Config) { c.Policy.BarrierSpinGrace = 50 }},
	{"bus cycles", func(c *Config) { c.Mem.BusCycles = 8 }},
	{"row hit cycles", func(c *Config) { c.Mem.RowHitCycles = 45 }},
	{"row miss cycles", func(c *Config) { c.Mem.RowMissCycles = 105 }},
}

// configFields visits every leaf field of Config, by dotted path, with its
// index path for reflect.Value.FieldByIndex.
func configFields(visit func(path string, index []int)) {
	var walk func(t reflect.Type, prefix string, index []int)
	walk = func(t reflect.Type, prefix string, index []int) {
		for i := range t.NumField() {
			f := t.Field(i)
			idx := append(slices.Clone(index), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, prefix+f.Name+".", idx)
				continue
			}
			visit(prefix+f.Name, idx)
		}
	}
	walk(reflect.TypeOf(Config{}), "", nil)
}

// TestConfigFieldsSizeOrInstall walks Config: Machine.reset either sizes
// storage from a field, reusing the capacity it has, or installs it, and
// either way TestMachineResetAcrossShapes must hold a recycled machine to
// a fresh one across a change of it. A new field fails here by name until
// a step of resetSteps changes it.
func TestConfigFieldsSizeOrInstall(t *testing.T) {
	base := Default().WithCores(4)
	configFields(func(path string, index []int) {
		for _, s := range resetSteps {
			cfg := base
			s.change(&cfg)
			v := reflect.ValueOf
			if !v(cfg).FieldByIndex(index).Equal(v(base).FieldByIndex(index)) {
				return
			}
		}
		t.Errorf("no step of resetSteps changes Config.%s: add one that moves the run", path)
	})
}

// freshRun is one run of progs() on a fresh machine for cfg.
func freshRun(t *testing.T, cfg Config, progs func() []trace.Program) (Result, error) {
	t.Helper()
	m, err := NewMachine(cfg, progs())
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestMachineResetAcrossShapes pins that a machine's storage depends on
// capacity, not shape: one machine reset through resetSteps in order, and
// a Pool running the same sequence, give every run the result a fresh
// machine gives, with or without an error. A reset
// that kept the previous geometry, or cleared only as much of a slice as
// the previous run used, fails here. TestConfigFieldsSizeOrInstall checks
// that the steps cover every field of Config.
func TestMachineResetAcrossShapes(t *testing.T) {
	base := Default().WithCores(4)
	want, err := freshRun(t, base, shapeProgs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(base, shapeProgs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var p Pool
	for _, s := range resetSteps {
		cfg := base
		s.change(&cfg)
		fresh, ferr := freshRun(t, cfg, shapeProgs)
		if ferr == nil && reflect.DeepEqual(fresh, want) {
			t.Errorf("%s: the change moves nothing; pick one that moves the run", s.name)
		}
		if err := m.reset(cfg, shapeProgs()); err != nil {
			t.Fatal(err)
		}
		got, err := m.Run()
		if fmt.Sprint(err) != fmt.Sprint(ferr) || !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: the recycled machine's run differs from a fresh machine's (errors %v and %v)", s.name, err, ferr)
		}
		got, err = p.Run(cfg, shapeProgs())
		if fmt.Sprint(err) != fmt.Sprint(ferr) || !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: a pooled run differs from a fresh machine's (errors %v and %v)", s.name, err, ferr)
		}
	}
}

// TestPoolKeyIgnoresPolicy pins that the pool does not split machines by
// policy, which an inline spec's lock_grace reaches: with one P and no
// collection, the machine that ran the default policy serves every lock
// and barrier grace after it, each run equals a fresh machine's, and each
// grace moves the run. A pool keyed on the whole Config built one fresh
// multi-megabyte machine per distinct value.
func TestPoolKeyIgnoresPolicy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := Default().WithCores(4)
	var p Pool
	var first *Machine
	want, err := p.Run(base, poolTestProgs(), func(m *Machine) { first = m })
	if err != nil {
		t.Fatal(err)
	}
	for _, grace := range []uint64{0, 1, 10, 50, 100} {
		for _, barrier := range []bool{false, true} {
			cfg := base
			name := fmt.Sprintf("lock grace %d", grace)
			if barrier {
				cfg.Policy.BarrierSpinGrace = grace
				name = fmt.Sprintf("barrier grace %d", grace)
			} else {
				cfg.Policy.LockSpinGrace = grace
			}
			fresh, err := freshRun(t, cfg, poolTestProgs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if reflect.DeepEqual(fresh, want) {
				t.Errorf("%s: the grace moves nothing; pick one that moves the run", name)
			}
			var m *Machine
			got, err := p.Run(cfg, poolTestProgs(), func(pm *Machine) { m = pm })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s: a pooled run differs from a fresh machine's", name)
			}
			// The race detector drops a quarter of puts, so the pool may
			// have built a new machine there.
			if m != first && !raceEnabled {
				t.Errorf("%s: the pool built a new machine for a new policy", name)
			}
		}
	}
}

// TestPoolDropsLargeSyncTables holds the sync tables a pooled machine
// keeps to syncTableCap entries each: a lock id of 1<<20, and a barrier
// and a queue registered at 1<<16, grow the tables past it, and the
// machine's next run, recycled through the pool, drops them and equals a
// fresh machine's. One P and no collection keep the machine in the pool
// between the two runs.
func TestPoolDropsLargeSyncTables(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := Default().WithCores(4)
	ops := []trace.Op{trace.Lock(1 << 20), trace.Compute(10), trace.Unlock(1 << 20)}
	hostile := []trace.Program{trace.NewSliceProgram(ops), trace.NewSliceProgram(ops)}
	tables := func(m *Machine) map[string]int {
		return map[string]int{"locks": cap(m.locks), "barriers": cap(m.barriers), "queues": cap(m.queues)}
	}
	var p Pool
	var first, second *Machine
	if _, err := p.Run(cfg, hostile, WithBarrier(1<<16, 2), WithQueue(1<<16, 4), func(m *Machine) { first = m }); err != nil {
		t.Fatal(err)
	}
	for name, n := range tables(first) {
		if n <= syncTableCap {
			t.Fatalf("the hostile run grew the %s table to %d entries, within the bound of %d: it tests nothing", name, n, syncTableCap)
		}
	}
	want, err := freshRun(t, cfg, poolTestProgs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(cfg, poolTestProgs(), func(m *Machine) { second = m })
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Skip("the pool dropped the machine between the runs (the race detector drops a quarter of puts)")
	}
	for name, n := range tables(second) {
		if n > syncTableCap {
			t.Errorf("the recycled machine keeps a %s table of %d entries, past the bound of %d", name, n, syncTableCap)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the recycled machine's next run differs from a fresh machine's")
	}
}

// TestPoolRunAllocations fences what a warmed pool allocates: once its
// machine has run the largest shape of the evaluation (16 cores, a 16 MiB
// LLC), a run at every smaller core count and LLC size the evaluation
// sweeps allocates no tag-array storage, only the run's own bookkeeping
// (the scheduler, the sync objects, the result). One P and no collection
// keep the machine in the pool.
func TestPoolRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts and drops pooled machines")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool
	if _, err := p.Run(Default().WithLLCSize(16<<20), poolTestProgs()); err != nil {
		t.Fatal(err)
	}
	// Measured: 928 bytes at one core to 1,056 at 16, the same at every LLC
	// size. The bound is the largest times 1.14, the headroom of the
	// service's memo-hit fence, and below any tag array: an L1's is 8 KiB.
	const bound = 1200
	for _, cores := range []int{1, 2, 4, 8, 16} {
		for _, mb := range []int64{2, 4, 8} {
			cfg := Default().WithCores(cores).WithLLCSize(mb << 20)
			progs := poolTestProgs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := p.Run(cfg, progs)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			n := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d cores, %d MiB LLC: %d bytes", cores, mb, n)
			if n > bound {
				t.Errorf("%d cores, %d MiB LLC: a run on the warmed pool allocates %d bytes, want <= %d", cores, mb, n, bound)
			}
		}
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
