package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// fastRunBench runs a registered workload in the given mode.
func fastRunBench(t *testing.T, name string, threads int, mode sim.Mode) sim.Result {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	res, err := workload.Simulate(sim.Default().WithMode(mode), b.Spec, threads, threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Mode
		ok   bool
	}{
		{"", sim.ModeExact, true},
		{"exact", sim.ModeExact, true},
		{"fast", sim.ModeFast, true},
		{"bogus", sim.ModeExact, false},
		{"FAST", sim.ModeExact, false},
	} {
		got, err := sim.ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if sim.ModeExact.String() != "exact" || sim.ModeFast.String() != "fast" {
		t.Errorf("mode strings: %q, %q", sim.ModeExact, sim.ModeFast)
	}
}

func TestFastConfigValidate(t *testing.T) {
	cfg := sim.Default().WithMode(sim.ModeFast)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default fast config invalid: %v", err)
	}
	bad := cfg
	bad.Mode = sim.Mode(7)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode accepted: %v", err)
	}
}

// TestFastModeDeterministic pins fast mode's own determinism contract:
// approximate relative to exact mode, but a pure function of
// (config, workload) — repeated runs, pooled or fresh, are deeply equal.
func TestFastModeDeterministic(t *testing.T) {
	first := fastRunBench(t, "cholesky_splash2", 8, sim.ModeFast)
	for i := 0; i < 2; i++ {
		again := fastRunBench(t, "cholesky_splash2", 8, sim.ModeFast)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("fast-mode rerun %d differs:\n got %+v\nwant %+v", i, again, first)
		}
	}
}

// TestPoolModeKeying pins the pool-recycling contract across modes: a pool
// alternating fast and exact runs of the same workload must reproduce the
// mode-pure results exactly. Mode sizes nothing, so one recycled machine
// serves both, and reset installs the mode and clears the fast-mode
// accumulators: no state crosses from a run in one mode to the next.
func TestPoolModeKeying(t *testing.T) {
	exact := fastRunBench(t, "ferret_parsec_medium", 4, sim.ModeExact)
	fast := fastRunBench(t, "ferret_parsec_medium", 4, sim.ModeFast)
	if reflect.DeepEqual(exact.PerThread, fast.PerThread) {
		t.Fatal("fast and exact runs produced identical counters; sampling had no effect")
	}
	// The helper goes through the shared default pool, so by now both
	// configurations have pooled machines. Alternate modes and diff.
	for pass := 0; pass < 2; pass++ {
		gotE := fastRunBench(t, "ferret_parsec_medium", 4, sim.ModeExact)
		gotF := fastRunBench(t, "ferret_parsec_medium", 4, sim.ModeFast)
		if !reflect.DeepEqual(gotE, exact) {
			t.Fatalf("pass %d: exact result drifted after fast runs on the pool", pass)
		}
		if !reflect.DeepEqual(gotF, fast) {
			t.Fatalf("pass %d: fast result drifted after exact runs on the pool", pass)
		}
	}
}

// TestFastDetailSetIsATDSample pins the one sampling decision: fast mode
// simulates in detail exactly the LLC sets the ATD samples, at whatever
// stride ATDSampleShift sets.
func TestFastDetailSetIsATDSample(t *testing.T) {
	// (a) Per thread the directory observes exactly the detailed accesses,
	// a strict subset of the full population — one analogue per family.
	for _, name := range []string{"canneal_parsec_small", "cholesky_splash2", "ferret_parsec_small"} {
		for _, threads := range []int{4, 8} {
			res := fastRunBench(t, name, threads, sim.ModeFast)
			for i, ct := range res.PerThread {
				if ct.SampledATDAccesses != ct.DetailedLLCAccesses || ct.DetailedLLCAccesses >= ct.LLCAccesses {
					t.Errorf("%s x%d thread %d: %d sampled ATD, %d detailed, %d LLC accesses; want sampled == detailed < all",
						name, threads, i, ct.SampledATDAccesses, ct.DetailedLLCAccesses, ct.LLCAccesses)
				}
			}
		}
	}

	// (b) The stride is the ATD's: a denser or sparser sample is a valid fast
	// machine, deterministic, and simulates more or fewer accesses in detail.
	b, _ := workload.ByName("canneal_parsec_small")
	detailed := func(shift uint) (total uint64) {
		t.Helper()
		cfg := sim.Default().WithMode(sim.ModeFast)
		cfg.ATDSampleShift = shift
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fast mode at ATD sample shift %d: %v", shift, err)
		}
		first, err := workload.Simulate(cfg, b.Spec, 8, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := workload.Simulate(cfg, b.Spec, 8, 8, nil); !reflect.DeepEqual(first, again) {
			t.Errorf("fast mode at shift %d is not deterministic", shift)
		}
		for _, ct := range first.PerThread {
			total += ct.DetailedLLCAccesses
		}
		return total
	}
	if d4, d5, d6 := detailed(4), detailed(5), detailed(6); !(d4 > d5 && d5 > d6) {
		t.Errorf("detailed LLC accesses at shifts 4, 5, 6 = %d, %d, %d; want strictly decreasing", d4, d5, d6)
	}
}
