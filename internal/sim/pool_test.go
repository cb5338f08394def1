package sim

import (
	"fmt"
	"reflect"
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

// installed maps every Config field that sizes no storage — the fields
// storageKey zeroes and Machine.reset installs — to a valid change that
// moves a run of poolTestProgs on Default().WithCores(4) (MaxCycles: makes
// it fail).
var installed = map[string]func(*Config){
	"Quantum":                 func(c *Config) { c.Quantum = 37 },
	"MaxCycles":               func(c *Config) { c.MaxCycles = 50_000 },
	"Mode":                    func(c *Config) { c.Mode = ModeFast },
	"Spin.Threshold":          func(c *Config) { c.Spin.Threshold = 2 },
	"Policy.LockSpinGrace":    func(c *Config) { c.Policy.LockSpinGrace = 50 },
	"Policy.BarrierSpinGrace": func(c *Config) { c.Policy.BarrierSpinGrace = 50 },
	"Mem.BusCycles":           func(c *Config) { c.Mem.BusCycles = 8 },
	"Mem.RowHitCycles":        func(c *Config) { c.Mem.RowHitCycles = 45 },
	"Mem.RowMissCycles":       func(c *Config) { c.Mem.RowMissCycles = 105 },
}

// sized lists every Config field that sizes the machine's storage — tag
// arrays, tag directories, the controller's banks and ORAs, the per-core
// slices: the fields the pool keys on.
var sized = []string{
	"Cores",
	"L1.SizeBytes", "L1.Ways", "L1.LineBytes",
	"LLC.SizeBytes", "LLC.Ways", "LLC.LineBytes",
	"Mem.Banks", "Mem.RowBytes", "Mem.LineBytes",
	"ATDSampleShift",
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

// TestConfigFieldsSizeOrInstall walks Config: every field is either sized
// (in the pool's key) or installed by reset (zeroed in the key), and the
// key moves with exactly the sized ones. A new field fails here until it
// is classified, and an installed one also needs a change that
// TestPoolKeyIgnoresPolicy holds a recycled machine to.
func TestConfigFieldsSizeOrInstall(t *testing.T) {
	seen := map[string]bool{}
	configFields(func(path string, index []int) {
		seen[path] = true
		_, inst := installed[path]
		if inst == slices.Contains(sized, path) {
			t.Errorf("Config.%s must be in exactly one of sized and installed: does it size storage, or does reset install it?", path)
			return
		}
		base := Default()
		changed := base
		f := reflect.ValueOf(&changed).Elem().FieldByIndex(index)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("Config.%s is a %s: teach the walk to change it", path, f.Kind())
		}
		if moved := storageKey(changed) != storageKey(base); moved == inst {
			t.Errorf("Config.%s: changing it moves the pool key: %v, want %v", path, moved, !inst)
		}
	})
	for path := range installed {
		if !seen[path] {
			t.Errorf("installed names Config.%s, which does not exist", path)
		}
	}
	for _, path := range sized {
		if !seen[path] {
			t.Errorf("sized names Config.%s, which does not exist", path)
		}
	}
}

// freshRun is one run of poolTestProgs on a fresh machine for cfg.
func freshRun(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	m, err := NewMachine(cfg, poolTestProgs())
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestPoolKeyIgnoresPolicy pins what the pool keys on: configurations that
// differ only in fields that size nothing — the quantum, the cycle cap, the
// mode, the spin detector, the policy (which an inline spec's lock_grace
// reaches) and the memory timings (the what-if catalog's halved latency) —
// share one entry, reset installs each run's fields, and every result
// equals a fresh machine's. Keyed on the whole Config the map grew by one
// never-removed entry, and one fresh multi-megabyte machine, per distinct
// value. The garbage collector may empty a sync.Pool between two runs, so
// one machine, reset by hand, also runs exact, fast, exact again, halved
// memory latency and then each field's change.
func TestPoolKeyIgnoresPolicy(t *testing.T) {
	base := Default().WithCores(4)
	want, err := freshRun(t, base)
	if err != nil {
		t.Fatal(err)
	}
	halved := base
	halved.Mem.BusCycles /= 2
	halved.Mem.RowHitCycles /= 2
	halved.Mem.RowMissCycles /= 2
	type run struct {
		name string
		cfg  Config
	}
	runs := []run{{"exact", base}, {"fast", base.WithMode(ModeFast)}, {"exact again", base}, {"halved memory latency", halved}}
	var paths []string
	for path := range installed {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		cfg := base
		installed[path](&cfg)
		runs = append(runs, run{path, cfg})
	}

	p := NewPool()
	m, err := NewMachine(base, poolTestProgs())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		fresh, ferr := freshRun(t, r.cfg)
		if i > 0 && r.cfg != base && ferr == nil && reflect.DeepEqual(fresh, want) {
			t.Errorf("%s: the change moves nothing; pick one that moves the run", r.name)
		}
		if i > 0 {
			if err := m.reset(r.cfg, poolTestProgs()); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Run()
		if fmt.Sprint(err) != fmt.Sprint(ferr) || !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: the recycled machine's run differs from a fresh machine's (errors %v and %v)", r.name, err, ferr)
		}
		got, err = p.Run(r.cfg, poolTestProgs())
		if fmt.Sprint(err) != fmt.Sprint(ferr) || !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: a pooled run differs from a fresh machine's (errors %v and %v)", r.name, err, ferr)
		}
	}
	if len(p.pools) != 1 {
		t.Fatalf("%d pool entries after changing every installed field of one machine shape, want 1", len(p.pools))
	}
	small := base.WithLLCSize(base.LLC.SizeBytes / 2)
	fresh, _ := freshRun(t, small)
	if got, err := p.Run(small, poolTestProgs()); err != nil || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("a second storage shape: pooled run differs from a fresh machine's (%v)", err)
	}
	if len(p.pools) != 2 {
		t.Fatalf("%d pool entries after two storage shapes, want 2", len(p.pools))
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
