package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Ablation studies for the accounting architecture's design choices (the
// ablations row of PAPER.md's figure map). These are not paper figures;
// they probe the knobs the paper fixed: the ATD sampling factor (Section 4.1
// trades hardware cost against extrapolation noise), the Tian detector's
// repetition threshold (Section 4.3), and the engine's relaxed-
// synchronization quantum (a simulator-fidelity check). Each sweep point
// is a distinct machine configuration run through the shared engine, so
// points that coincide with the base machine reuse the evaluation's cells.

// SamplingRow is one point of the ATD sampling sweep.
type SamplingRow struct {
	// SampleShift selects 1-in-2^shift sets.
	SampleShift uint
	// ATDBytes is the per-core tag-store cost at this shift.
	ATDBytes int
	// MeanAbsErrPct is the 16-thread validation error over the probe set.
	MeanAbsErrPct float64
}

// ablationProbeSet is a small but diverse benchmark subset used by the
// sweeps: one cache-bound, one spin-bound, one sharing-bound and one
// pipeline benchmark.
var ablationProbeSet = []string{
	"facesim_parsec_small",
	"cholesky_splash2",
	"canneal_parsec_small",
	"ferret_parsec_small",
}

func probeError(ctx context.Context, e *Engine, cfg sim.Config) (float64, error) {
	outs, err := e.SweepConfig(ctx, cfg, cellsAt(16, ablationProbeSet))
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, out := range outs {
		total += 100 * abs(out.Stack.Error())
	}
	return total / float64(len(outs)), nil
}

// AblationSampling sweeps the ATD set-sampling factor: more sampled sets
// cost more tag storage and reduce extrapolation noise. The paper picks a
// high sampling factor to reach its 952-byte budget. The sweep is a study
// of the hardware proposal's accuracy, so it always runs on the exact
// machine, whatever the engine's mode: in fast mode the shift also picks the
// sets simulated in detail, and the sweep would vary more than the ATD.
func AblationSampling(ctx context.Context, e *Engine) ([]SamplingRow, error) {
	base := e.Config().WithMode(sim.ModeExact)
	var rows []SamplingRow
	for _, shift := range []uint{0, 3, 5, 7} {
		cfg := base
		cfg.ATDSampleShift = shift
		err := cfg.Validate()
		if err != nil {
			return nil, err
		}
		meanErr, err := probeError(ctx, e, cfg)
		if err != nil {
			return nil, err
		}
		sets := cfg.LLC.Sets() >> shift
		cost := core.Cost(core.CostParams{
			SampledSets: sets, Ways: cfg.LLC.Ways, TagBits: 24,
			ORAEntries: cfg.Mem.Banks, Counters: 12, SpinEntries: 8,
		})
		rows = append(rows, SamplingRow{
			SampleShift:   shift,
			ATDBytes:      cost.ATDBytes,
			MeanAbsErrPct: meanErr,
		})
	}
	return rows, nil
}

// FormatSampling renders the sampling sweep.
func FormatSampling(rows []SamplingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "sample shift", "ATD bytes/core", "mean|err|%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14d %14d %14.1f\n", r.SampleShift, r.ATDBytes, r.MeanAbsErrPct)
	}
	return b.String()
}

// ThresholdRow is one point of the spin-threshold sweep.
type ThresholdRow struct {
	Threshold     int
	MeanAbsErrPct float64
	// SpinShare is cholesky's detected spin component in speedup units: a
	// threshold that is too high misses short episodes.
	SpinShare float64
}

// AblationSpinThreshold sweeps the Tian detector's repetition threshold.
func AblationSpinThreshold(ctx context.Context, e *Engine) ([]ThresholdRow, error) {
	base := e.Config()
	var rows []ThresholdRow
	for _, th := range []int{4, 16, 64, 256} {
		cfg := base
		cfg.Spin.Threshold = th
		meanErr, err := probeError(ctx, e, cfg)
		if err != nil {
			return nil, err
		}
		// cholesky_splash2 is in the probe set, so this cell is memoized.
		outs, err := e.SweepConfig(ctx, cfg, []Cell{{Bench: "cholesky_splash2", Threads: 16}})
		if err != nil {
			return nil, err
		}
		out := outs[0]
		rows = append(rows, ThresholdRow{
			Threshold:     th,
			MeanAbsErrPct: meanErr,
			SpinShare:     out.Stack.Components.Spin / float64(out.Stack.Tp),
		})
	}
	return rows, nil
}

// FormatThreshold renders the spin-threshold sweep.
func FormatThreshold(rows []ThresholdRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %20s\n", "threshold", "mean|err|%", "cholesky spin comp")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %14.1f %20.2f\n", r.Threshold, r.MeanAbsErrPct, r.SpinShare)
	}
	return b.String()
}

// QuantumRow is one point of the engine-quantum sweep.
type QuantumRow struct {
	Quantum uint64
	// Speedup16 is facesim's measured 16-thread speedup: relaxed
	// synchronization must not distort results materially.
	Speedup16 float64
	// MeanAbsErrPct as in the other sweeps.
	MeanAbsErrPct float64
}

// AblationQuantum sweeps the relaxed-synchronization quantum. Simulated
// results should be (nearly) insensitive to it within a sane range — this
// is the fidelity argument for the Sniper-style engine.
func AblationQuantum(ctx context.Context, e *Engine) ([]QuantumRow, error) {
	base := e.Config()
	var rows []QuantumRow
	for _, q := range []uint64{50, 100, 200, 400} {
		cfg := base
		cfg.Quantum = q
		outs, err := e.SweepConfig(ctx, cfg, []Cell{{Bench: "facesim_parsec_small", Threads: 16}})
		if err != nil {
			return nil, err
		}
		meanErr, err := probeError(ctx, e, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuantumRow{
			Quantum:       q,
			Speedup16:     outs[0].Stack.ActualSpeedup,
			MeanAbsErrPct: meanErr,
		})
	}
	return rows, nil
}

// FormatQuantum renders the quantum sweep.
func FormatQuantum(rows []QuantumRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %18s %14s\n", "quantum", "facesim x16", "mean|err|%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %18.2f %14.1f\n", r.Quantum, r.Speedup16, r.MeanAbsErrPct)
	}
	return b.String()
}

// runAblation composes the three ablation sweeps into one section.
func runAblation(ctx context.Context, e *Engine, _ Params) (string, error) {
	rows, err := AblationSampling(ctx, e)
	if err != nil {
		return "", err
	}
	th, err := AblationSpinThreshold(ctx, e)
	if err != nil {
		return "", err
	}
	qr, err := AblationQuantum(ctx, e)
	if err != nil {
		return "", err
	}
	return "ATD sampling factor (hardware cost vs accuracy; exact machine in every mode):\n" +
		FormatSampling(rows) +
		"\nTian detector threshold:\n" + FormatThreshold(th) +
		"\nengine quantum (fidelity check):\n" + FormatQuantum(qr), nil
}
