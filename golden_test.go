package speedupstack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// goldenHash pins the SHA-256 of the full `experiments all` artifact set —
// every figure formatter plus the Figure 5 CSV — as regenerated on the
// default machine. The simulation engine is deterministic by contract, so
// this hash only moves when simulated behavior moves: any hot-path change
// that perturbs results (rather than just making them faster) fails loudly
// here. If a change intentionally alters simulated behavior, regenerate
// with `go test -run TestGoldenExperimentsAll -v .` and update the
// constant alongside a CHANGES.md note.
//
// Coverage note: the hash spans exactly the paper-reproduction sections
// `experiments all` prints (Figures 1 and 4-9 plus the validation table).
// On-demand sections — `experiments advise` and `experiments whatif` — are
// deliberately outside the artifact set, so growing them cannot move the
// hash; their behavior is pinned instead by the advise tests and the
// what-if prediction-error regression in internal/exp.
const goldenHash = "095d6b27e2582d8672b31613ce2078de527279cde9450a2b31d59b0d24733bff"

// TestGoldenExperimentsAll regenerates every section of `experiments all`
// through one shared engine (the cmd/experiments code path) and hashes the
// concatenated output.
func TestGoldenExperimentsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation regeneration is not a -short test")
	}
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(runtime.NumCPU()))
	ctx := context.Background()
	var buf bytes.Buffer

	curves, err := exp.Figure1(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatCurves(curves))

	rows, err := exp.Validation(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatValidation(rows))

	f4, err := exp.Figure4(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatFigure4(f4))

	bars, err := exp.Figure5(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(stack.Table(bars))
	if err := exp.WriteStacksCSV(&buf, bars); err != nil {
		t.Fatal(err)
	}

	f6, err := exp.Figure6(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatFigure6(f6))

	f7, err := exp.Figure7(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatFigure7(f7))

	f8, err := exp.Figure8(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatInterference(f8))

	f9, err := exp.Figure9(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(exp.FormatInterference(f9))

	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if got != goldenHash {
		t.Fatalf("experiments-all output hash drifted:\n  got  %s\n  want %s\n"+
			"simulated behavior changed; if intentional, update goldenHash", got, goldenHash)
	}
}

// TestZeroSteadyStateAllocs pins the allocation behavior of the pooled
// hot path: once a machine for a configuration exists, re-running a small
// registry workload allocates a small per-run constant (programs and their
// staging queues, the scheduler, per-phase barriers, result slices) and
// nothing per simulated op.
func TestZeroSteadyStateAllocs(t *testing.T) {
	bench, ok := workload.ByName("swaptions_parsec_small")
	if !ok {
		t.Fatal("swaptions_parsec_small not registered")
	}
	cfg := sim.Default().WithCores(4)
	cfg.Policy = bench.Spec.TunePolicy(cfg.Policy)
	run := func() sim.Result {
		progs, err := bench.Spec.Parallel(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := run() // populate the machine pool for cfg
	if warm.TotalOps == 0 {
		t.Fatal("no ops simulated")
	}
	allocs := testing.AllocsPerRun(3, func() { run() })
	t.Logf("allocs/run = %.0f over %d ops (%.6f allocs/op)",
		allocs, warm.TotalOps, allocs/float64(warm.TotalOps))

	// Zero per-op allocations means the total is a per-run constant
	// (programs and their staging queues, the scheduler, per-phase barriers,
	// result slices): quadrupling the simulated work must not move it.
	// Quadrupling the sweep count quadruples the op stream on the same
	// machine configuration with an identical synchronization structure.
	big := bench.Spec
	big.SweepsPerPhase *= 4
	big.Name = bench.Spec.Name + "-x4"
	runBig := func() sim.Result {
		progs, err := big.Parallel(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warmBig := runBig()
	if warmBig.TotalOps < 3*warm.TotalOps {
		t.Fatalf("x4 workload did not scale ops: %d vs %d", warmBig.TotalOps, warm.TotalOps)
	}
	allocsBig := testing.AllocsPerRun(3, func() { runBig() })
	t.Logf("x4 workload: allocs/run = %.0f over %d ops", allocsBig, warmBig.TotalOps)
	if allocsBig > allocs+0.25*allocs+16 {
		t.Fatalf("allocations scale with simulated ops (not a per-run constant): %.0f for %d ops vs %.0f for %d ops",
			allocsBig, warmBig.TotalOps, allocs, warm.TotalOps)
	}
}
