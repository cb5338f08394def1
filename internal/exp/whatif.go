package exp

import (
	"context"
	"fmt"

	"repro/internal/stack"
	"repro/internal/whatif"
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
	if req.Threads < MinWhatIfThreads {
		return whatif.Report{}, fmt.Errorf("exp: what-if needs at least %d threads (a single-threaded run has no scaling gap), got %d",
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
	b, k, err := e.resolve(req)
	if err != nil {
		return whatif.Report{}, err
	}

	// Baseline first: the predictions are pure arithmetic over its stack.
	outs, err := e.Do(ctx, []Request{req})
	if err != nil {
		return whatif.Report{}, err
	}
	base := outs[0]

	// One batched Do over every applicable mutation: spec mutations carry
	// their own fingerprints, machine mutations their own configurations, so
	// the batch deduplicates against everything already simulated.
	applied := make([]whatif.Intervention, 0, len(ivs))
	muts := make([]whatif.Mutation, 0, len(ivs))
	reqs := make([]Request, 0, len(ivs))
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
		applied = append(applied, iv)
		muts = append(muts, m)
		reqs = append(reqs, mreq)
	}
	mouts, err := e.Do(ctx, reqs)
	if err != nil {
		return whatif.Report{}, err
	}

	type ranked struct {
		pred whatif.Prediction
		bar  stack.Bar
	}
	rows := make([]ranked, len(applied))
	for i, iv := range applied {
		gain := whatif.PredictGain(base.Stack, iv)
		out := mouts[i]
		rows[i] = ranked{
			pred: whatif.Prediction{
				Intervention:     iv.ID,
				Summary:          iv.Summary,
				Component:        iv.Component,
				Mutation:         muts[i].Description,
				PredictedGain:    gain,
				PredictedSpeedup: base.Actual + gain,
				ActualSpeedup:    out.Actual,
				ActualGain:       out.Actual - base.Actual,
				Error:            (base.Actual + gain - out.Actual) / float64(k.threads),
			},
			bar: stack.Bar{Label: iv.ID, Stack: out.Stack},
		}
	}
	preds := make([]whatif.Prediction, len(rows))
	for i, r := range rows {
		preds[i] = r.pred
	}
	whatif.Rank(preds)

	rep := whatif.Report{
		Benchmark:         b.FullName(),
		Threads:           k.threads,
		BaselineSpeedup:   base.Actual,
		BaselineEstimated: base.Estimated,
		Predictions:       preds,
		Bars:              make([]stack.Bar, 0, len(rows)+1),
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
		for _, r := range rows {
			if r.pred.Intervention == p.Intervention {
				rep.Bars = append(rep.Bars, r.bar)
				break
			}
		}
	}
	return rep, nil
}
