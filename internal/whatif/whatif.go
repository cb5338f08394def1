// Package whatif is the causal what-if engine: it re-evaluates the paper's
// Section 3/4 estimator with one speedup-stack component virtually scaled
// and ranks the resulting interventions by predicted speedup gain.
//
// The speedup stack is additive (Formula (4): Ŝ = N − Σ O_j/Tp + P/Tp), so
// scaling a component's cycle cost by a factor f changes the estimate by
// (1−f)·C/Tp speedup units — a pure re-evaluation, no simulation. What makes
// the prediction falsifiable is the spec vocabulary: every catalog
// intervention is also a concrete workload.Spec or sim.Config mutation
// ("halve the lock hold time" is cs_instr/2, "double the LLC" is a machine
// with twice the capacity), so the mutated workload can actually be
// re-simulated and the predicted gain compared against the measured one.
// The exp package's Engine.WhatIf does exactly that, riding the
// fingerprint-keyed memo so repeated what-ifs cost zero extra simulations;
// this package holds the catalog, the prediction arithmetic, the report
// type and its encoders.
//
// Predictions are first-order by construction: halving a critical section
// more than halves the queueing it causes, and a bigger LLC also speeds up
// the sequential reference the speedup is measured against. The measured
// prediction errors are pinned per intervention in ErrorBounds and asserted
// across the whole registry in CI, mirroring how the paper validates the
// estimator itself (Formula (6)).
package whatif

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// ComponentScale is one virtual scaling: the named stack component's cycle
// cost is multiplied by Factor when re-evaluating the estimator (0 removes
// the component, 0.5 halves it).
type ComponentScale struct {
	// Component is a stack package component name (stack.Comp*).
	Component string `json:"component"`
	// Factor is the multiplier applied to the component, in [0, 1].
	Factor float64 `json:"factor"`
}

// Intervention is one catalog entry: a named, virtually-scalable change to
// the workload or the machine.
type Intervention struct {
	// ID is the stable identifier used on the wire and the command line.
	ID string `json:"id"`
	// Summary is the one-line human description.
	Summary string `json:"summary"`
	// Component is the primary stack component the intervention targets —
	// the hook the advisor uses to attach predicted gains to its
	// component-keyed recommendations.
	Component string `json:"component"`
	// Scales lists every component the intervention virtually scales when
	// predicting (an intervention may touch more than its primary: removing
	// imbalance also removes the yield time skew produces at barriers).
	Scales []ComponentScale `json:"scales"`
}

// ScalesComponent reports whether the intervention virtually scales the
// named component.
func (iv Intervention) ScalesComponent(name string) bool {
	for _, sc := range iv.Scales {
		if sc.Component == name {
			return true
		}
	}
	return false
}

// Mutation is the concrete counterpart of an intervention for one workload:
// the mutated spec (workload-level interventions) or the mutated machine
// (hardware-level ones) — exactly one is non-nil — plus a human description
// of what changed.
type Mutation struct {
	Spec        *workload.Spec
	Config      *sim.Config
	Description string
}

// Catalog intervention IDs.
const (
	HalveLockHold   = "halve_lock_hold"
	RemoveImbalance = "remove_imbalance"
	DoubleLLC       = "double_llc"
	HalveMemLatency = "halve_mem_latency"
)

// catalog is the intervention registry, in presentation order. The entries
// are value types; Catalog returns copies so callers cannot mutate it.
var catalog = []Intervention{
	{
		ID:        HalveLockHold,
		Summary:   "halve the lock hold time (cs_instr / dispatch_instr)",
		Component: stack.CompSpinning,
		Scales: []ComponentScale{
			{Component: stack.CompSpinning, Factor: 0.5},
		},
	},
	{
		ID:        RemoveImbalance,
		Summary:   "remove work imbalance (balance the per-thread shares)",
		Component: stack.CompYielding,
		Scales: []ComponentScale{
			{Component: stack.CompYielding, Factor: 0},
			{Component: stack.CompImbalance, Factor: 0},
		},
	},
	{
		ID:        DoubleLLC,
		Summary:   "double the shared LLC capacity",
		Component: stack.CompCache,
		Scales: []ComponentScale{
			{Component: stack.CompCache, Factor: 0.5},
		},
	},
	{
		ID:        HalveMemLatency,
		Summary:   "halve the DRAM latency and bus occupancy",
		Component: stack.CompMemory,
		Scales: []ComponentScale{
			{Component: stack.CompMemory, Factor: 0.5},
		},
	},
}

// Catalog returns every registered intervention, in presentation order.
func Catalog() []Intervention {
	return append([]Intervention(nil), catalog...)
}

// IDs returns the catalog intervention IDs, in presentation order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, iv := range catalog {
		out[i] = iv.ID
	}
	return out
}

// ErrUnknownIntervention tags lookups of an ID that is not in the catalog,
// mirroring workload.ErrUnknownBenchmark: callers branch with errors.Is,
// the speedupd service maps it to HTTP 404 with the nearest-ID suggestion.
var ErrUnknownIntervention = errors.New("unknown intervention")

// ByID resolves a catalog intervention, failing with a typed
// *workload.LookupError carrying the nearest-ID suggestion, or the full
// catalog when nothing is close.
func ByID(id string) (Intervention, error) {
	for _, iv := range catalog {
		if iv.ID == id {
			return iv, nil
		}
	}
	return Intervention{}, &workload.LookupError{Sentinel: ErrUnknownIntervention, Name: id,
		Suggestion: workload.Nearest(id, IDs()), Tail: "catalog: " + strings.Join(IDs(), ", ")}
}

// Mutate builds the intervention's concrete mutation for one workload on
// one machine. ok is false when the intervention does not apply (halving a
// lock hold time needs a lock; removing imbalance needs skewed shares).
// spec should be canonical; mutated specs stay valid whenever the input is,
// which the service's fuzz suite asserts for arbitrary valid specs.
func (iv Intervention) Mutate(spec workload.Spec, cfg sim.Config) (Mutation, bool) {
	switch iv.ID {
	case HalveLockHold:
		return mutateHalveLockHold(spec)
	case RemoveImbalance:
		if spec.Kind == workload.KindPipeline || spec.EffectiveParallelism <= 0 {
			return Mutation{}, false
		}
		m := spec
		desc := fmt.Sprintf("effective_parallelism %g -> 0 (balanced shares)", m.EffectiveParallelism)
		m.EffectiveParallelism = 0
		return Mutation{Spec: &m, Description: desc}, true
	case DoubleLLC:
		c := cfg.WithLLCSize(cfg.LLC.SizeBytes * 2)
		return Mutation{Config: &c,
			Description: fmt.Sprintf("LLC %d KiB -> %d KiB", cfg.LLC.SizeBytes>>10, c.LLC.SizeBytes>>10)}, true
	case HalveMemLatency:
		c := cfg
		c.Mem.RowHitCycles = halveCycles(c.Mem.RowHitCycles)
		c.Mem.RowMissCycles = halveCycles(c.Mem.RowMissCycles)
		c.Mem.BusCycles = halveCycles(c.Mem.BusCycles)
		return Mutation{Config: &c,
			Description: fmt.Sprintf("DRAM row hit/miss %d/%d -> %d/%d cycles, bus %d -> %d",
				cfg.Mem.RowHitCycles, cfg.Mem.RowMissCycles, c.Mem.RowHitCycles, c.Mem.RowMissCycles,
				cfg.Mem.BusCycles, c.Mem.BusCycles)}, true
	}
	return Mutation{}, false
}

// mutateHalveLockHold halves the serial work held under locks: the
// critical-section body for data-parallel workloads, the dispatch section
// (plus any item-level critical section) for task queues. Pipelines have no
// lock knobs, so the intervention does not apply.
func mutateHalveLockHold(spec workload.Spec) (Mutation, bool) {
	m := spec
	switch spec.Kind {
	case workload.KindDataParallel:
		if spec.CSInstr <= 0 || spec.CSPerThreadPerPhase <= 0 {
			return Mutation{}, false
		}
		m.CSInstr = spec.CSInstr / 2
		return Mutation{Spec: &m,
			Description: fmt.Sprintf("cs_instr %d -> %d", spec.CSInstr, m.CSInstr)}, true
	case workload.KindTaskQueue:
		if spec.DispatchInstr <= 0 && spec.CSInstr <= 0 {
			return Mutation{}, false
		}
		var parts []string
		if spec.DispatchInstr > 0 {
			m.DispatchInstr = spec.DispatchInstr / 2
			parts = append(parts, fmt.Sprintf("dispatch_instr %d -> %d", spec.DispatchInstr, m.DispatchInstr))
		}
		if spec.CSInstr > 0 {
			m.CSInstr = spec.CSInstr / 2
			parts = append(parts, fmt.Sprintf("cs_instr %d -> %d", spec.CSInstr, m.CSInstr))
		}
		return Mutation{Spec: &m, Description: strings.Join(parts, ", ")}, true
	}
	return Mutation{}, false
}

// halveCycles halves a latency without reaching zero (mem.Config rejects
// zero-cycle resources).
func halveCycles(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return v / 2
}

// PredictGain re-evaluates Formula (4) with the intervention's components
// scaled and returns the predicted speedup change, in speedup units:
// Σ (1−factor)·C/Tp over the scaled components. Components whose current
// value is non-positive (a net-positive LLC interference) contribute
// nothing — the intervention cannot reclaim cycles the workload is not
// losing.
func PredictGain(st core.Stack, iv Intervention) float64 {
	named := stack.Named(st)
	gain := 0.0
	for _, sc := range iv.Scales {
		if v := named[sc.Component]; v > 0 {
			gain += (1 - sc.Factor) * v
		}
	}
	return gain
}

// Prediction is one evaluated intervention: the estimator's prediction and
// the ground truth from re-simulating the mutated workload/machine.
type Prediction struct {
	// Intervention, Summary and Component echo the catalog entry; Mutation
	// describes the concrete spec/config change that was re-simulated.
	Intervention string `json:"intervention"`
	Summary      string `json:"summary"`
	Component    string `json:"component"`
	Mutation     string `json:"mutation"`
	// PredictedGain is the Formula (4) re-evaluation: the speedup units the
	// scaled components currently cost. PredictedSpeedup is the baseline
	// actual speedup plus that gain.
	PredictedGain    float64 `json:"predicted_gain"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	// ActualSpeedup is the re-simulated mutated workload's measured speedup;
	// ActualGain its change over the baseline.
	ActualSpeedup float64 `json:"actual_speedup"`
	ActualGain    float64 `json:"actual_gain"`
	// Error is the prediction error normalized the paper's way (Formula
	// (6)): (PredictedSpeedup − ActualSpeedup)/N. Positive means the
	// estimator over-promised.
	Error float64 `json:"error"`
}

// Report is the full what-if answer for one (workload, threads) cell:
// every applicable intervention predicted, re-simulated and ranked by
// predicted gain (descending; ties break on intervention ID). It is a
// stack.Document (encode.go).
type Report struct {
	// Benchmark labels the workload; Threads (and Cores, when it differs
	// from Threads) the analyzed run shape.
	Benchmark string `json:"benchmark"`
	Threads   int    `json:"threads"`
	Cores     int    `json:"cores,omitempty"`
	// BaselineSpeedup and BaselineEstimated anchor the predictions: the
	// measured and Formula (4) speedups of the unmutated run.
	BaselineSpeedup   float64 `json:"baseline_speedup"`
	BaselineEstimated float64 `json:"baseline_estimated"`
	// Predictions are ranked by predicted gain, largest first.
	Predictions []Prediction `json:"predictions"`
	// Bars carries the baseline and per-intervention re-simulated stacks
	// backing the SVG rendering; it is not part of the JSON wire form.
	Bars []stack.Bar `json:"-"`
}

// Rank sorts predictions in report order: predicted gain descending, ties
// broken by intervention ID so the ranking is total and deterministic.
func Rank(preds []Prediction) {
	sort.SliceStable(preds, func(i, j int) bool {
		if preds[i].PredictedGain != preds[j].PredictedGain {
			return preds[i].PredictedGain > preds[j].PredictedGain
		}
		return preds[i].Intervention < preds[j].Intervention
	})
}

// ErrorBounds documents the maximum |Prediction.Error| each intervention
// exhibits across the full regression grid — every registry analogue at 4
// and 16 threads — with headroom for future calibration drift. The grid is
// asserted against these bounds in CI (internal/exp's what-if regression),
// so a change that degrades the predictor past them fails loudly.
//
// The bounds differ because the interventions break first-order additivity
// differently. Halving the lock hold time is the best-behaved (measured
// worst |error| 0.073): spin cycles shrink close to linearly with the
// critical-section length. The hardware mutations also speed up the
// sequential reference the speedup is measured against, which the stack — a
// property of the parallel run alone — cannot see (measured worst 0.163 for
// the LLC, 0.169 for memory latency). Removing imbalance is the most
// invasive: balancing the per-thread shares re-times every phase, exposing
// lock and memory contention the skewed schedule was hiding, so its
// first-order prediction is systematically optimistic (measured worst
// 0.411, freqmine_parsec_medium x16).
var ErrorBounds = map[string]float64{
	HalveLockHold:   0.10,
	RemoveImbalance: 0.45,
	DoubleLLC:       0.20,
	HalveMemLatency: 0.20,
}
