package speedupstack

import (
	"context"

	"repro/internal/exp"
	"repro/internal/whatif"
)

// WhatIfReport is the causal what-if engine's answer for one (workload,
// threads) cell: every applicable catalog intervention's predicted speedup
// gain — the Section 3/4 estimator re-evaluated with the intervention's
// stack components virtually scaled — validated by re-simulating the
// concretely mutated workload or machine, ranked by predicted gain. It is a
// Document: FormatText is the human-readable ranking, FormatJSON the report
// object, FormatCSV one record per prediction, and FormatSVG the baseline
// and per-intervention re-simulated stacks as one bar chart.
type WhatIfReport = whatif.Report

// WhatIfPrediction is one evaluated intervention: predicted and
// re-simulated speedups, their gains, and the prediction error normalized
// the paper's way ((predicted − actual)/N, Formula (6)).
type WhatIfPrediction = whatif.Prediction

// WhatIfIntervention is one catalog entry: a named, virtually-scalable
// change to the workload or the machine.
type WhatIfIntervention = whatif.Intervention

// Catalog intervention IDs, usable with WhatIf's variadic selection.
const (
	WhatIfHalveLockHold   = whatif.HalveLockHold
	WhatIfRemoveImbalance = whatif.RemoveImbalance
	WhatIfDoubleLLC       = whatif.DoubleLLC
	WhatIfHalveMemLatency = whatif.HalveMemLatency
)

// MinWhatIfThreads is the smallest thread count the what-if engine accepts.
const MinWhatIfThreads = exp.MinWhatIfThreads

// Interventions returns the what-if catalog, in presentation order.
func Interventions() []WhatIfIntervention { return whatif.Catalog() }

// WhatIf runs the causal what-if analysis for the request's workload at its
// thread count. interventions selects catalog entries by ID; none means the
// full catalog. Interventions that do not apply to the workload are skipped.
func WhatIf(ctx context.Context, r Request, interventions ...string) (WhatIfReport, error) {
	return newEngine().WhatIf(ctx, r.request(), interventions)
}
