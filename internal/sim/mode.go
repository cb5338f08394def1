package sim

import "fmt"

// Mode selects the simulation fidelity of a run.
//
// The two modes are distinct determinism contracts (see ARCHITECTURE.md):
// exact mode is byte-identical — the golden experiments hash pins its
// results — while fast mode is deterministic for a fixed (config, workload)
// but approximate, with its deviation from exact mode bounded by
// FastErrorBounds and pinned in CI.
type Mode uint8

const (
	// ModeExact simulates every LLC set and every memory access in full
	// detail. It is the zero value: existing configurations keep their
	// byte-identical behavior.
	ModeExact Mode = iota
	// ModeFast simulates in detail only the LLC sets the ATD samples (paper
	// Section 4.2) and extrapolates the skipped sets from them; fast.go has
	// the model. Same estimator, cheaper inputs: the run-level factors
	// (sampling factor, average miss penalty) are frozen from the scaled
	// counters exactly as in exact mode.
	ModeFast
)

// String returns the mode's query-parameter / flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeFast:
		return "fast"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode parses a mode name as accepted by `-mode` flags and the
// service's ?mode= parameter. The empty string is ModeExact (the default).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "fast":
		return ModeFast, nil
	default:
		return ModeExact, fmt.Errorf("sim: unknown mode %q (want exact or fast)", s)
	}
}

// FastBounds bounds the deviation of a fast-mode run from the exact-mode
// run of the same (config, workload). Component fields are in speedup units
// (component cycles divided by Tp, the units of the paper's stacks);
// Speedup bounds |Ŝ_fast − Ŝ_exact| and ActualSpeedup bounds
// |S_fast − S_exact| (the timing drift of the sampled machine itself).
type FastBounds struct {
	NegLLC        float64
	PosLLC        float64
	NegMem        float64
	Spin          float64
	Yield         float64
	Imbalance     float64
	Speedup       float64
	ActualSpeedup float64
}

// FastErrorBounds is the documented accuracy contract of ModeFast with the
// default ATDSampleShift, measured across all 28 registered analogues at 4
// and 16 threads and asserted by the fast-vs-exact regression test in
// internal/exp (which runs under CI's -race job). The values carry
// ~30% headroom over the observed worst-case deviations (NegLLC 0.59,
// PosLLC 0.35, NegMem 2.88, Spin 2.67, Yield 1.05, Imbalance 0.02,
// Speedup 2.77, ActualSpeedup 2.73) so legitimate refactors don't trip
// them, while a regression that breaks the extrapolation fails loudly.
// These are worst single-cell deviations on the 16-thread machine; the
// mean |Ŝ_fast − Ŝ_exact| across the validation grid is 2-5% of N (the
// `experiments fastcompare` table), and fast mode's mean error against the
// actual speedup matches exact mode's.
var FastErrorBounds = FastBounds{
	NegLLC:        0.80,
	PosLLC:        0.50,
	NegMem:        3.75,
	Spin:          3.50,
	Yield:         1.40,
	Imbalance:     0.10,
	Speedup:       3.60,
	ActualSpeedup: 3.60,
}
