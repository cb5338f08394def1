package speedupstack

import (
	"context"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/scaling"
)

// Advice is the scaling advisor's answer for one workload: the measured
// thread sweep, deterministic least-squares fits of Amdahl's law (serial
// fraction σ) and the Universal Scalability Law (σ, κ), the
// diminishing-returns thread count N* = sqrt((1−σ)/κ), a classification of
// the sweep (linear / saturated / negative), a cross-check of the fitted
// serial fraction against the speedup stack's serialization components, and
// ranked workload-field-level recommendations. It is a Document: FormatText
// is the human-readable report, FormatJSON the Advice object, FormatCSV one
// record per sweep point with the fitted values alongside, and FormatSVG a
// standalone fit-curve chart overlaying the measured sweep with both fitted
// models.
type Advice = scaling.Advice

// AdvicePoint is one measured sweep sample.
type AdvicePoint = scaling.Point

// AdviceFit is one fitted scaling model (Amdahl or USL).
type AdviceFit = scaling.Fit

// AdviceRecommendation is one ranked, workload-field-level suggestion.
type AdviceRecommendation = scaling.Recommendation

// AdviceClass is the advisor's sweep classification.
type AdviceClass = scaling.Class

// The advisor's sweep classes.
const (
	AdviceLinear    = scaling.ClassLinear
	AdviceSaturated = scaling.ClassSaturated
	AdviceNegative  = scaling.ClassNegative
)

// Advisor sweep bounds: the USL fit needs a sweep top of at least
// MinAdviseThreads, and MaxAdviseThreads is the simulator's core limit,
// because the sweep keeps cores = threads at every point.
const (
	MinAdviseThreads = exp.MinAdviseThreads
	MaxAdviseThreads = cache.MaxCores
)

// Advise sweeps the request's workload from 1 to maxThreads (powers of two
// plus the top, threads = cores at every point), fits the scaling models,
// and returns the full advisor answer. The sweep sets the thread count:
// r.Threads is ignored.
func Advise(ctx context.Context, r Request, maxThreads int) (Advice, error) {
	return newEngine().Advise(ctx, r.request(), maxThreads)
}
