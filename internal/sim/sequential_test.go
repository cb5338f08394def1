package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// TestRunSequentialEdges pins what the sequential reference's machine keeps
// of the caller's configuration at its two edges: the single-quantum
// horizon, which a quantum that does not divide MaxCycles moves, and the
// validity of the configuration, which the reference reports as the
// caller's machine would.
func TestRunSequentialEdges(t *testing.T) {
	burst := func(instrs uint32) trace.Program {
		return trace.NewSliceProgram([]trace.Op{trace.Compute(instrs)})
	}
	// 4400 instructions = 1100 cycles at width 4: past MaxCycles 1000, but
	// inside a 300-cycle quantum's 1200-cycle horizon and outside a
	// 100-cycle quantum's 1000-cycle one.
	cfg := Default()
	cfg.MaxCycles = 1000
	cfg.Quantum = 300
	res, err := RunSequential(cfg, burst(4400), WithoutAccounting())
	if err != nil || res.Tp != 1100 {
		t.Fatalf("quantum 300: Tp %d, err %v; want 1100 inside the 1200-cycle horizon", res.Tp, err)
	}
	cfg.Quantum = 100
	if _, err := RunSequential(cfg, burst(4400), WithoutAccounting()); err == nil {
		t.Fatal("quantum 100: a run past the 1000-cycle horizon completed")
	}

	// A configuration that cannot run fails with its own error, even where
	// the field it gets wrong is one the run never reads. MaxCycles 0 with
	// a power-of-two quantum is where the stepped loop's horizon formula
	// wraps to 0, which is no valid quantum.
	bad := Default()
	bad.ATDSampleShift = 20
	zero := Default()
	zero.MaxCycles, zero.Quantum = 0, 128
	for _, c := range []Config{bad, zero} {
		_, want := Run(c.WithCores(1), []trace.Program{burst(400)}, WithoutAccounting())
		if _, err := RunSequential(c, burst(400), WithoutAccounting()); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("RunSequential error %v, the machine's %v", err, want)
		}
	}
	// A shift that is valid for the caller's LLC stays valid: an 8-set LLC
	// takes shift 2 but not the default 5.
	small := Default()
	small.L1 = cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 64}
	small.LLC = cache.Config{SizeBytes: 8 << 10, Ways: 16, LineBytes: 64}
	small.ATDSampleShift = 2
	if _, err := RunSequential(small, burst(400)); err != nil {
		t.Fatalf("8-set LLC at shift 2: %v", err)
	}
}
