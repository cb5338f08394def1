package exp

import (
	"context"
	"fmt"
	"slices"
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
// is a distinct machine configuration; the three sweeps declare the probe
// set under every point in one batch, so points that coincide with the base
// machine reuse the evaluation's cells.

// SamplingRow is one point of the ATD sampling sweep.
type SamplingRow struct {
	// SampleShift selects 1-in-2^shift sets.
	SampleShift uint
	// ATDBytes is the per-core tag-store cost at this shift.
	ATDBytes int
	// MeanAbsErrPct is the 16-thread validation error over the probe set.
	MeanAbsErrPct float64
}

// ThresholdRow is one point of the spin-threshold sweep.
type ThresholdRow struct {
	Threshold     int
	MeanAbsErrPct float64
	// SpinShare is cholesky's detected spin component in speedup units: a
	// threshold that is too high misses short episodes.
	SpinShare float64
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

// Ablations are the three sweeps' tables.
type Ablations struct {
	// Sampling sweeps the ATD set-sampling factor: more sampled sets cost
	// more tag storage and reduce extrapolation noise. The paper picks a
	// high sampling factor to reach its 952-byte budget.
	Sampling []SamplingRow
	// Threshold sweeps the Tian detector's repetition threshold.
	Threshold []ThresholdRow
	// Quantum sweeps the relaxed-synchronization quantum. Simulated results
	// should be (nearly) insensitive to it within a sane range — this is
	// the fidelity argument for the Sniper-style engine.
	Quantum []QuantumRow
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

// The sweep points, in row order.
var (
	ablationShifts     = []uint{0, 3, 5, 7}
	ablationThresholds = []int{4, 16, 64, 256}
	ablationQuanta     = []uint64{50, 100, 200, 400}
)

// Ablation runs the three sweeps as one batch: the probe set at 16 threads
// under every sweep point's machine. The sampling sweep is a study of the
// hardware proposal's accuracy, so it always runs on the exact machine,
// whatever the engine's mode: in fast mode the shift also picks the sets
// simulated in detail, and the sweep would vary more than the ATD.
func Ablation(ctx context.Context, e *Engine) (Ablations, error) {
	base := e.Config()
	probes := cellsAt(16, ablationProbeSet)
	var reqs []Request
	for _, shift := range ablationShifts {
		cfg := base.WithMode(sim.ModeExact)
		cfg.ATDSampleShift = shift
		if err := cfg.Validate(); err != nil {
			return Ablations{}, err
		}
		reqs = append(reqs, onMachine(cfg, probes)...)
	}
	for _, th := range ablationThresholds {
		cfg := base
		cfg.Spin.Threshold = th
		reqs = append(reqs, onMachine(cfg, probes)...)
	}
	for _, q := range ablationQuanta {
		cfg := base
		cfg.Quantum = q
		reqs = append(reqs, onMachine(cfg, probes)...)
	}
	outs := make([]Outcome, len(reqs))
	if err := e.Do(ctx, reqs, func(i int, out Outcome) { outs[i] = out }); err != nil {
		return Ablations{}, err
	}

	// point takes the next sweep point's probe outcomes and their mean
	// |err|%.
	point := func() ([]Outcome, float64) {
		o := outs[:len(probes)]
		outs = outs[len(probes):]
		total := 0.0
		for _, out := range o {
			total += 100 * abs(out.Stack.Error())
		}
		return o, total / float64(len(o))
	}
	cholesky := slices.Index(ablationProbeSet, "cholesky_splash2")
	facesim := slices.Index(ablationProbeSet, "facesim_parsec_small")
	var a Ablations
	for _, shift := range ablationShifts {
		_, meanErr := point()
		p := core.PaperCostParams()
		p.SampledSets, p.Ways, p.ORAEntries = base.LLC.Sets()>>shift, base.LLC.Ways, base.Mem.Banks
		a.Sampling = append(a.Sampling, SamplingRow{shift, core.Cost(p).ATDBytes, meanErr})
	}
	for _, th := range ablationThresholds {
		o, meanErr := point()
		s := o[cholesky].Stack
		a.Threshold = append(a.Threshold, ThresholdRow{th, meanErr, s.Components.Spin / float64(s.Tp)})
	}
	for _, q := range ablationQuanta {
		o, meanErr := point()
		a.Quantum = append(a.Quantum, QuantumRow{q, o[facesim].Stack.ActualSpeedup, meanErr})
	}
	return a, nil
}

// FormatAblation renders the three sweeps as the ablation section.
func FormatAblation(a Ablations) string {
	var b strings.Builder
	b.WriteString("ATD sampling factor (hardware cost vs accuracy; exact machine in every mode):\n")
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "sample shift", "ATD bytes/core", "mean|err|%")
	for _, r := range a.Sampling {
		fmt.Fprintf(&b, "%-14d %14d %14.1f\n", r.SampleShift, r.ATDBytes, r.MeanAbsErrPct)
	}
	b.WriteString("\nTian detector threshold:\n")
	fmt.Fprintf(&b, "%-12s %14s %20s\n", "threshold", "mean|err|%", "cholesky spin comp")
	for _, r := range a.Threshold {
		fmt.Fprintf(&b, "%-12d %14.1f %20.2f\n", r.Threshold, r.MeanAbsErrPct, r.SpinShare)
	}
	b.WriteString("\nengine quantum (fidelity check):\n")
	fmt.Fprintf(&b, "%-10s %18s %14s\n", "quantum", "facesim x16", "mean|err|%")
	for _, r := range a.Quantum {
		fmt.Fprintf(&b, "%-10d %18.2f %14.1f\n", r.Quantum, r.Speedup16, r.MeanAbsErrPct)
	}
	return b.String()
}
