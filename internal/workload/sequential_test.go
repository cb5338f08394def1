package workload

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// machineTs runs s's sequential reference on exactly the machine cfg
// describes — one core, the spec's policy, accounting off — with nothing
// else about cfg changed: the run every normalization of the sequential
// configuration is held to.
func machineTs(t *testing.T, cfg sim.Config, s Spec) uint64 {
	t.Helper()
	p, err := s.Sequential()
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.WithCores(1)
	cfg.Policy = s.TunePolicy(cfg.Policy)
	res, err := sim.Run(cfg, []trace.Program{p}, sim.WithoutAccounting())
	if err != nil {
		t.Fatal(err)
	}
	return res.Tp
}

// TestSequentialTsInvariance fences the sequential reference's identity.
// For every registered workload, in both modes, it perturbs one field of
// the base machine at a time. A field the one-core, accounting-off,
// single-quantum run does not read — the spin threshold, the quantum, and
// in exact mode the ATD sample shift — must leave Ts as it is on the base
// machine. For a field the run does read — the LLC size, the row-miss
// latency, and in fast mode the shift, which picks the detailed sets — Ts
// from the product paths (Simulate with threads 0, sim.RunSequential) must
// equal Ts of the machine as configured, so a normalization that drops a
// read field fails here.
func TestSequentialTsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's sequential reference 28 times")
	}
	perturbs := []struct {
		name string
		set  func(*sim.Config)
		// readIn reports whether the sequential run reads the field in
		// mode m.
		readIn func(m sim.Mode) bool
	}{
		{"shift=0", func(c *sim.Config) { c.ATDSampleShift = 0 }, isFast},
		{"shift=7", func(c *sim.Config) { c.ATDSampleShift = 7 }, isFast},
		{"threshold=4", func(c *sim.Config) { c.Spin.Threshold = 4 }, never},
		{"threshold=256", func(c *sim.Config) { c.Spin.Threshold = 256 }, never},
		{"quantum=50", func(c *sim.Config) { c.Quantum = 50 }, never},
		{"quantum=400", func(c *sim.Config) { c.Quantum = 400 }, never},
		{"llc=1MiB", func(c *sim.Config) { c.LLC.SizeBytes = 1 << 20 }, always},
		{"rowmiss=300", func(c *sim.Config) { c.Mem.RowMissCycles = 300 }, always},
	}
	for _, mode := range []sim.Mode{sim.ModeExact, sim.ModeFast} {
		base := sim.Default().WithMode(mode)
		for _, name := range Names() {
			b, _ := ByName(name)
			t.Run(fmt.Sprintf("%s/%s", mode, name), func(t *testing.T) {
				t.Parallel()
				want := machineTs(t, base, b.Spec)
				if got := simulateTs(t, base, b.Spec); got != want {
					t.Errorf("base: Simulate's Ts %d, the machine as configured %d", got, want)
				}
				for _, pt := range perturbs {
					cfg := base
					pt.set(&cfg)
					ts := machineTs(t, cfg, b.Spec)
					if !pt.readIn(mode) {
						if ts != want {
							t.Errorf("%s: Ts %d, base machine %d", pt.name, ts, want)
						}
						continue
					}
					if got := simulateTs(t, cfg, b.Spec); got != ts {
						t.Errorf("%s: Simulate's Ts %d, the machine as configured %d", pt.name, got, ts)
					}
					if pt.name != "llc=1MiB" {
						continue // one RunSequential per workload keeps the test short
					}
					p, err := b.Spec.Sequential()
					if err != nil {
						t.Fatal(err)
					}
					cfg.Policy = b.Spec.TunePolicy(cfg.Policy)
					res, err := sim.RunSequential(cfg, p, sim.WithoutAccounting())
					if err != nil {
						t.Fatal(err)
					}
					if res.Tp != ts {
						t.Errorf("%s: RunSequential's Ts %d, the machine as configured %d", pt.name, res.Tp, ts)
					}
				}
			})
		}
	}
}

func isFast(m sim.Mode) bool { return m == sim.ModeFast }
func never(sim.Mode) bool    { return false }
func always(sim.Mode) bool   { return true }

// simulateTs is Ts as the product path computes it.
func simulateTs(t *testing.T, cfg sim.Config, s Spec) uint64 {
	t.Helper()
	res, err := Simulate(cfg, s, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tp
}

// TestSimulateSequentialInvalidConfig: the sequential reference of an
// invalid machine fails with the machine's own error, even when the field
// it gets wrong is one the run never reads.
func TestSimulateSequentialInvalidConfig(t *testing.T) {
	b, _ := ByName("cholesky_splash2")
	cfg := sim.Default()
	cfg.ATDSampleShift = 20
	_, err := Simulate(cfg, b.Spec, 0, 0, nil)
	const want = "cholesky_splash2 sequential: sim: ATD sample shift 20 too large for 2048 LLC sets"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}
