package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// MinWhatIfThreads is the smallest cell the what-if engine accepts: a
// single-threaded run has no scaling gap to decompose, so there is nothing
// for an intervention to reclaim.
const MinWhatIfThreads = 2

// WhatIf measures the cell, re-evaluates the estimator with each requested
// intervention's components virtually scaled, validates every prediction by
// re-simulating the concretely mutated workload (or machine), and returns
// the ranked report. ids selects catalog interventions; nil or empty means
// the full catalog. Interventions that do not apply to the workload are
// skipped silently (they would predict nothing).
//
// Every simulation — the baseline and each mutated cell — goes through the
// engine's fingerprint-keyed memo: a spec mutation is just a new
// fingerprint, a machine mutation a new configuration in the cell key, so
// repeating a what-if (or running one after an advise or sweep that already
// simulated the baseline) costs zero extra simulations.
func (e *Engine) WhatIf(ctx context.Context, req Request, ids []string) (whatif.Report, error) {
	b, k, err := e.resolve(req)
	if err != nil {
		return whatif.Report{}, err
	}
	if req.Threads < MinWhatIfThreads {
		return whatif.Report{}, refuse("what-if needs threads >= %d (a single-threaded run has no scaling gap), got %d",
			MinWhatIfThreads, req.Threads)
	}
	ivs := whatif.Catalog()
	if len(ids) > 0 {
		ivs = make([]whatif.Intervention, len(ids))
		for i, id := range ids {
			iv, err := whatif.ByID(id)
			if err != nil {
				return whatif.Report{}, err
			}
			ivs[i] = iv
		}
	}

	// One batched Do over the baseline and every applicable mutation: spec
	// mutations carry their own fingerprints, machine mutations their own
	// configurations, so the batch deduplicates against everything already
	// simulated. No key depends on the baseline's result, and one batch
	// keeps a MemoOnly call all-or-nothing.
	preds := make([]whatif.Prediction, 0, len(ivs))
	reqs := append(make([]Request, 0, len(ivs)+1), req)
	applied := make([]whatif.Intervention, 0, len(ivs))
	for _, iv := range ivs {
		m, ok := iv.Mutate(b.Spec, k.cfg)
		if !ok {
			continue
		}
		mreq := Request{Cell: Cell{Threads: req.Threads, Cores: req.Cores}, Config: req.Config}
		if m.Spec != nil {
			mreq.Cell.Spec = m.Spec
		} else {
			spec := b.Spec
			mreq.Cell.Spec = &spec
			mreq.Config = m.Config
		}
		preds = append(preds, whatif.Prediction{
			Intervention: iv.ID,
			Summary:      iv.Summary,
			Component:    iv.Component,
			Mutation:     m.Description,
		})
		applied = append(applied, iv)
		reqs = append(reqs, mreq)
	}
	outs, err := e.Do(ctx, reqs)
	if err != nil {
		return whatif.Report{}, err
	}
	// The predictions are pure arithmetic over the baseline's stack. The
	// re-simulated stacks are keyed by intervention so the bars can follow
	// the ranking (a repeated ID maps to the same stack either way).
	base := outs[0]
	stacks := make(map[string]core.Stack, len(preds))
	for i, out := range outs[1:] {
		p := &preds[i]
		p.PredictedGain = whatif.PredictGain(base.Stack, applied[i])
		p.PredictedSpeedup = base.Stack.ActualSpeedup + p.PredictedGain
		p.ActualSpeedup = out.Stack.ActualSpeedup
		p.ActualGain = out.Stack.ActualSpeedup - base.Stack.ActualSpeedup
		p.Error = (p.PredictedSpeedup - out.Stack.ActualSpeedup) / float64(k.threads)
		stacks[p.Intervention] = out.Stack
	}
	whatif.Rank(preds)

	rep := whatif.Report{
		Benchmark:         b.FullName(),
		Threads:           k.threads,
		BaselineSpeedup:   base.Stack.ActualSpeedup,
		BaselineEstimated: base.Stack.Estimated(),
		Predictions:       preds,
		Bars:              make([]stack.Bar, 0, len(preds)+1),
	}
	if k.cores != k.threads {
		rep.Cores = k.cores
	}
	rep.Bars = append(rep.Bars, stack.Bar{
		Label: fmt.Sprintf("%s x%d (baseline)", b.FullName(), k.threads),
		Stack: base.Stack,
	})
	// Bars follow the ranking so the chart reads top intervention first.
	for _, p := range preds {
		rep.Bars = append(rep.Bars, stack.Bar{Label: p.Intervention, Stack: stacks[p.Intervention]})
	}
	return rep, nil
}

// runWhatIf prints every registered workload's top intervention with its
// predicted and re-simulated gains.
func runWhatIf(ctx context.Context, e *Engine, p Params) (string, error) {
	names := workload.Names()
	var b strings.Builder
	fmt.Fprintf(&b, "causal what-if engine, %d workloads x%d threads (predicted vs re-simulated gains)\n\n",
		len(names), p.Threads)
	fmt.Fprintf(&b, "%-26s %8s %-18s %9s %9s %8s\n",
		"benchmark", "baseline", "top intervention", "gain(est)", "gain(sim)", "error")
	for _, name := range names {
		rep, err := e.WhatIf(ctx, Request{Cell: Cell{Bench: name, Threads: p.Threads}}, nil)
		if err != nil {
			return "", err
		}
		if len(rep.Predictions) == 0 {
			fmt.Fprintf(&b, "%-26s %8.2f %-18s\n", name, rep.BaselineSpeedup, "-")
			continue
		}
		q := rep.Predictions[0]
		fmt.Fprintf(&b, "%-26s %8.2f %-18s %+9.2f %+9.2f %+8.3f\n",
			name, rep.BaselineSpeedup, q.Intervention, q.PredictedGain, q.ActualGain, q.Error)
	}
	return b.String(), nil
}
