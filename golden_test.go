package speedupstack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// goldenHash pins the SHA-256 of the evaluation's original artifact set,
// as regenerated on the default machine: the bodies of the `experiments
// all` sections fig1, validation, fig4, fig6, fig7, fig8 and fig9 in
// registry order, with Figure 5 in its golden composition (goldenFigure5)
// in place of the fig5 body. The simulation engine is deterministic by
// contract, so this hash only moves when simulated behavior moves: any
// hot-path change that perturbs results (rather than just making them
// faster) fails loudly here. If a change intentionally alters simulated
// behavior, update the constant alongside a CHANGES.md note.
//
// Coverage note: goldenHash covers neither the hwcost and ablation
// sections, nor the printed fig5 chart, nor any fast-mode or on-demand
// output. The digest table testdata/experiments.json does: one SHA-256 per
// framed section, exactly as `experiments -q [-mode fast] NAME` prints it,
// for every `all` section in exact and fast mode, for the on-demand phases,
// advise, fastcompare, calibrate and whatif sections in exact mode
// (pinnedOnDemand), and for each mode's whole `all` output. Only custom,
// which takes a user's spec, is unpinned. The what-if prediction-error
// regression in internal/exp bounds the analogues' predictions; it pins
// neither the printed whatif section nor the contention patterns in it.
const goldenHash = "095d6b27e2582d8672b31613ce2078de527279cde9450a2b31d59b0d24733bff"

// goldenTablePath is the per-section digest table: mode -> section (or
// "all") -> SHA-256 of the framed section.
const goldenTablePath = "testdata/experiments.json"

// pinnedOnDemand are the on-demand sections the digest table pins (exact
// mode only).
var pinnedOnDemand = map[string]bool{"phases": true, "advise": true, "fastcompare": true, "calibrate": true, "whatif": true}

// notInGoldenHash are the `all` sections added after goldenHash was fixed.
var notInGoldenHash = map[string]bool{"hwcost": true, "ablation": true}

// goldenFigure5 is Figure 5 as goldenHash composes it: the stack table plus
// its CSV, not the chart the fig5 section prints.
func goldenFigure5(ctx context.Context, e *exp.Engine) (string, error) {
	bars, err := exp.Figure5(ctx, e)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	buf.WriteString(stack.Table(bars))
	err = exp.WriteStacksCSV(&buf, bars)
	return buf.String(), err
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sharedEngines are the package's one exact and one fast engine, behind the
// tests that range over the registry: TestGoldenExperimentsAll and
// TestIntervalSumInvariant simulate each shared cell once between them.
var sharedEngines = sync.OnceValue(func() map[sim.Mode]*exp.Engine {
	engines := map[sim.Mode]*exp.Engine{}
	for _, mode := range []sim.Mode{sim.ModeExact, sim.ModeFast} {
		engines[mode] = exp.NewEngine(sim.Default().WithMode(mode), exp.WithWorkers(runtime.NumCPU()))
	}
	return engines
})

// TestGoldenExperimentsAll regenerates every registered section through the
// shared exact and fast engines (the cmd/experiments code path), checks the
// original artifact set against goldenHash and every framed section against
// the digest table.
func TestGoldenExperimentsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation regeneration is not a -short test")
	}
	ctx := context.Background()
	got := map[string]map[string]string{}
	var old strings.Builder
	for _, mode := range []sim.Mode{sim.ModeExact, sim.ModeFast} {
		e := sharedEngines()[mode]
		digests := map[string]string{}
		var all strings.Builder
		for _, a := range exp.Artifacts {
			if a.OnDemand && (mode != sim.ModeExact || !pinnedOnDemand[a.Name]) {
				continue
			}
			body, err := a.Run(ctx, e, exp.DefaultParams)
			if err != nil {
				t.Fatalf("%s %s: %v", mode, a.Name, err)
			}
			framed := exp.Frame(a.Name, body)
			digests[a.Name] = sha256Hex(framed)
			if a.OnDemand {
				continue
			}
			all.WriteString(framed)
			if mode != sim.ModeExact || notInGoldenHash[a.Name] {
				continue
			}
			if a.Name == "fig5" {
				if body, err = goldenFigure5(ctx, e); err != nil {
					t.Fatal(err)
				}
			}
			old.WriteString(body)
		}
		digests["all"] = sha256Hex(all.String())
		got[mode.String()] = digests
	}

	if h := sha256Hex(old.String()); h != goldenHash {
		t.Errorf("experiments-all output hash drifted:\n  got  %s\n  want %s\n"+
			"simulated behavior changed; if intentional, update goldenHash", h, goldenHash)
	}

	data, err := os.ReadFile(goldenTablePath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenTablePath, err)
	}
	var moved []string
	for mode := range union(got, want) {
		for name := range union(got[mode], want[mode]) {
			if got[mode][name] != want[mode][name] {
				moved = append(moved, mode+" "+name)
			}
		}
	}
	if len(moved) > 0 {
		sort.Strings(moved)
		table, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("sections moved against %s: %s\n"+
			"if intentional, replace the file with the table as regenerated:\n%s",
			goldenTablePath, strings.Join(moved, ", "), table)
	}
}

// formula6Bounds bound Formula (6)'s error at threads = cores: the
// validation table's mean and max |Ŝ−S|/N in %, per thread count, each at
// most a point above the mean and three above the max the evaluation reads
// (5.5/17.2, 6.1/20.2, 4.1/15.4 and 3.2/13.9 % at 2, 4, 8 and 16 threads).
var formula6Bounds = map[int]struct{ mean, max float64 }{
	2:  {6.5, 20.2},
	4:  {7.0, 23.1},
	8:  {5.1, 18.4},
	16: {4.1, 16.9},
}

// TestFormula6ErrorBounds holds the estimator to readable bounds across the
// registry: the validation table, read from the shared exact engine whose
// cells TestGoldenExperimentsAll simulates too, so it adds no simulation.
// A change that moves the estimate moves the digests as well; this test
// says by how much, against a stated bound.
func TestFormula6ErrorBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation regeneration is not a -short test")
	}
	rows, err := exp.Validation(context.Background(), sharedEngines()[sim.ModeExact])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(formula6Bounds) {
		t.Fatalf("validation has %d thread counts, the bounds %d", len(rows), len(formula6Bounds))
	}
	for _, r := range rows {
		b, ok := formula6Bounds[r.Threads]
		if !ok {
			t.Errorf("%d threads: no bound", r.Threads)
			continue
		}
		t.Logf("%d threads: mean %.3f %%, max %.3f %% (%s)", r.Threads, r.MeanAbsErrPct, r.MaxAbsErrPct, r.Worst)
		if r.MeanAbsErrPct > b.mean || r.MaxAbsErrPct > b.max {
			t.Errorf("%d threads: mean %.1f %%, max %.1f %% (%s), want <= %.1f and %.1f",
				r.Threads, r.MeanAbsErrPct, r.MaxAbsErrPct, r.Worst, b.mean, b.max)
		}
	}
}

// union returns the keys of two maps.
func union[V any](a, b map[string]V) map[string]bool {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
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
