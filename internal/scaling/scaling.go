// Package scaling is the scaling-model advisor: it fits analytic scaling
// models to a measured thread sweep and turns the fitted parameters, together
// with the speedup stack at the top of the sweep, into an actionable
// diagnosis.
//
// Two models are fitted, both by deterministic closed-form least squares (no
// iterative optimizer, no randomness — the same sweep always produces the
// same fit):
//
//   - Amdahl's law with serial fraction σ:
//     S(N) = N / (1 + σ(N−1))
//   - Gunther's Universal Scalability Law (USL) with contention σ and
//     coherency/crosstalk κ (PAPERS.md: "A Methodology for Optimizing
//     Multithreaded System Scalability on Multi-cores"):
//     S(N) = N / (1 + σ(N−1) + κN(N−1))
//
// Both linearize exactly: y = N/S − 1 equals σ(N−1) for Amdahl and
// σ(N−1) + κN(N−1) for the USL, so the coefficients are the solution of a
// through-origin linear regression (one- and two-regressor normal equations).
// From the USL fit the advisor derives N* = sqrt((1−σ)/κ), the thread count
// where adding threads stops paying (dS/dN = 0), classifies the sweep as
// linear / saturated / negative, and cross-checks the fitted serial fraction
// against the speedup stack's serialization components (spinning + yielding
// + imbalance) — the two views of the same run should agree when
// synchronization is what limits scaling, and a disagreement beyond
// SigmaAgreementBound flags that the scaling loss lives elsewhere
// (cache/memory interference) than the curve shape alone suggests.
package scaling

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stack"
	"repro/internal/workload"
)

// ErrDegenerateSweep tags sweeps the fitter cannot use: too few points, or
// an (effectively) single-threaded sweep with fewer than two multi-threaded
// samples — the USL's two-parameter regression is underdetermined there,
// and forcing a fit would push Inf/NaN coefficients into every encoder.
// Callers branch on it with errors.Is; the message carries the specifics.
var ErrDegenerateSweep = errors.New("degenerate sweep")

// Point is one measured sweep sample: the thread count and the measured
// actual speedup (Ts/Tp) at that count.
type Point struct {
	Threads int     `json:"threads"`
	Speedup float64 `json:"speedup"`
}

// Fit is one fitted scaling model. Kappa is zero for the Amdahl fit (the
// model has no coherency term).
type Fit struct {
	// Sigma is the serial/contention fraction in [0, 1].
	Sigma float64 `json:"sigma"`
	// Kappa is the USL coherency/crosstalk coefficient, >= 0.
	Kappa float64 `json:"kappa"`
	// R2 is the coefficient of determination of the fit over the measured
	// speedups (1 = perfect); RMSE the root-mean-square residual in speedup
	// units.
	R2   float64 `json:"r2"`
	RMSE float64 `json:"rmse"`
}

// Speedup evaluates the fitted model at a (possibly fractional) thread count.
func (f Fit) Speedup(n float64) float64 {
	return n / (1 + f.Sigma*(n-1) + f.Kappa*n*(n-1))
}

// NStar returns the diminishing-returns thread count sqrt((1−σ)/κ) — the
// maximum of the fitted USL curve. It returns 0 when κ is zero (the model
// never turns over: no finite optimum exists).
func (f Fit) NStar() float64 {
	if f.Kappa <= 0 {
		return 0
	}
	return math.Sqrt((1 - f.Sigma) / f.Kappa)
}

// Class buckets a measured sweep by its shape.
type Class string

// The advisor's sweep classes. ClassLinear means the top of the sweep still
// runs at high parallel efficiency (the paper's "good scaling" benchmarks),
// ClassSaturated means speedup has flattened well below ideal, and
// ClassNegative means adding threads made the program slower (the measured
// curve turns over).
const (
	ClassLinear    Class = "linear"
	ClassSaturated Class = "saturated"
	ClassNegative  Class = "negative"
)

// Classification thresholds. They are part of the advisor's contract and are
// asserted registry-wide in tests.
const (
	// LinearEfficiency is the parallel efficiency (speedup / threads) at the
	// top of the sweep at or above which a sweep classifies as linear. The
	// value aligns with the paper's Figure 6 "good scaling" boundary:
	// 10x at 16 threads.
	LinearEfficiency = 0.625
	// NegativeDropFrac classifies a sweep as negative when the speedup at
	// the top of the sweep has fallen below this fraction of the measured
	// peak — the curve demonstrably turned over. Saturated registry
	// analogues flatten to 0.90–0.95 of their peak, so the boundary sits
	// below that plateau band.
	NegativeDropFrac = 0.85
	// SigmaAgreementBound is the documented cross-check bound: the fitted
	// serial fraction and the stack-implied serial fraction (from spinning +
	// yielding + imbalance) agree when they differ by at most this much.
	// The comparison uses the Amdahl σ, not the USL one: both sides measure
	// *total* serialization, which the USL deliberately splits between σ and
	// κ. Across the registry the synchronization-dominated analogues land
	// within 0.135 of the stack view while the memory-saturated one is off
	// by 0.18+, so 0.15 separates the two regimes. Beyond it the advisor
	// flags that the curve's shape is not explained by serialization alone.
	SigmaAgreementBound = 0.15
)

// MinPoints is the smallest sweep the fitter accepts: the two-parameter USL
// needs at least two multi-threaded samples, plus the single-threaded anchor.
const MinPoints = 3

// Recommendation is one ranked, spec-field-level suggestion: which workload
// knob to turn, what to do with it, and how much speedup the associated
// stack component currently costs.
type Recommendation struct {
	// Component is the speedup-stack component driving the recommendation
	// (the stack package's Figure 5/6 vocabulary).
	Component string `json:"component"`
	// Field is the workload-spec field (JSON name) the action targets.
	Field string `json:"field"`
	// Action is the one-line imperative summary; Detail explains why,
	// quoting the measured and fitted numbers.
	Action string `json:"action"`
	Detail string `json:"detail"`
	// Impact is the component's current cost in speedup units at the top of
	// the sweep — the upper bound on what fixing it can recover.
	Impact float64 `json:"impact_speedup_units"`
	// Intervention and PredictedGain connect the recommendation to the
	// what-if catalog (internal/whatif): the applicable intervention
	// targeting this component, and its predicted speedup gain from
	// re-evaluating the estimator with the component scaled. They are
	// filled by the exp layer (which owns both packages) and zero-valued
	// when no catalog intervention applies to the workload.
	Intervention  string  `json:"intervention,omitempty"`
	PredictedGain float64 `json:"predicted_gain,omitempty"`
}

// Advice is the advisor's full answer for one workload sweep, a stack.Document.
type Advice struct {
	// Benchmark labels the analyzed workload; MaxThreads is the top of the
	// measured sweep.
	Benchmark  string `json:"benchmark"`
	MaxThreads int    `json:"max_threads"`
	// Points is the measured sweep, ascending by thread count.
	Points []Point `json:"points"`
	// Amdahl and USL are the fitted models.
	Amdahl Fit `json:"amdahl"`
	USL    Fit `json:"usl"`
	// NStar is the USL diminishing-returns thread count sqrt((1−σ)/κ);
	// 0 means the fitted curve never turns over.
	NStar float64 `json:"n_star"`
	// Class is the sweep classification (linear / saturated / negative).
	Class Class `json:"classification"`
	// PeakSpeedup and PeakThreads locate the measured maximum.
	PeakSpeedup float64 `json:"peak_speedup"`
	PeakThreads int     `json:"peak_threads"`
	// SigmaStack is the serial fraction implied by the speedup stack's
	// spinning + yielding + imbalance components at MaxThreads, and
	// SigmaAgrees whether it matches the fitted Amdahl sigma within
	// SigmaAgreementBound. Both are zero-valued when no stack was attached.
	SigmaStack  float64 `json:"sigma_stack"`
	SigmaAgrees bool    `json:"sigma_agrees"`
	// Bottleneck names the largest stack component at MaxThreads ("" when
	// nothing is above the negligibility threshold or no stack was attached).
	Bottleneck string `json:"bottleneck,omitempty"`
	// Recommendations are ranked largest-impact first.
	Recommendations []Recommendation `json:"recommendations"`
}

// validatePoints checks a sweep is fittable: enough points, positive
// speedups, strictly ascending distinct thread counts, and at least two
// multi-threaded samples (the USL has two parameters).
func validatePoints(points []Point) error {
	if len(points) < MinPoints {
		return fmt.Errorf("scaling: %w: need at least %d sweep points to fit, got %d",
			ErrDegenerateSweep, MinPoints, len(points))
	}
	multi := 0
	for i, p := range points {
		if p.Threads < 1 {
			return fmt.Errorf("scaling: point %d has thread count %d", i, p.Threads)
		}
		if !(p.Speedup > 0) {
			return fmt.Errorf("scaling: point %d (%d threads) has non-positive speedup %v", i, p.Threads, p.Speedup)
		}
		if i > 0 && p.Threads <= points[i-1].Threads {
			return fmt.Errorf("scaling: thread counts must be strictly ascending (point %d: %d after %d)",
				i, p.Threads, points[i-1].Threads)
		}
		if p.Threads > 1 {
			multi++
		}
	}
	if multi < 2 {
		// The N=1-only (or nearly so) sweep: with fewer than two
		// multi-threaded samples both regressors vanish, sxx in FitAmdahl
		// (and the USL normal equations) would divide by zero, and the
		// downstream σ = s/((1−s)(N−1)) cross-check has no N>1 anchor.
		return fmt.Errorf("scaling: %w: need at least 2 multi-threaded points to fit contention, got %d",
			ErrDegenerateSweep, multi)
	}
	return nil
}

// FitAmdahl fits S(N) = N/(1+σ(N−1)) by least squares on the linearized
// form y = σ(N−1), y = N/S − 1. The single-threaded anchor contributes
// nothing to the regression (its regressor is zero) but counts toward the
// fit quality.
func FitAmdahl(points []Point) (Fit, error) {
	if err := validatePoints(points); err != nil {
		return Fit{}, err
	}
	var sxx, sxy float64
	for _, p := range points {
		x := float64(p.Threads - 1)
		y := float64(p.Threads)/p.Speedup - 1
		sxx += x * x
		sxy += x * y
	}
	sigma := clamp01(sxy / sxx)
	f := Fit{Sigma: sigma}
	f.R2, f.RMSE = quality(f, points)
	return f, nil
}

// FitUSL fits S(N) = N/(1+σ(N−1)+κN(N−1)) by two-regressor least squares on
// y = σx1 + κx2 with x1 = N−1, x2 = N(N−1). Negative unconstrained
// solutions are projected onto the feasible region (σ ∈ [0,1], κ ≥ 0) by
// refitting the remaining coefficient alone, keeping the fit deterministic.
func FitUSL(points []Point) (Fit, error) {
	if err := validatePoints(points); err != nil {
		return Fit{}, err
	}
	var s11, s12, s22, s1y, s2y float64
	for _, p := range points {
		x1 := float64(p.Threads - 1)
		x2 := float64(p.Threads) * x1
		y := float64(p.Threads)/p.Speedup - 1
		s11 += x1 * x1
		s12 += x1 * x2
		s22 += x2 * x2
		s1y += x1 * y
		s2y += x2 * y
	}
	det := s11*s22 - s12*s12
	var sigma, kappa float64
	if det > 1e-12*s11*s22 {
		sigma = (s1y*s22 - s2y*s12) / det
		kappa = (s2y*s11 - s1y*s12) / det
	} else {
		// Degenerate regressors (in practice: exactly two distinct
		// multi-threaded counts behaving identically); fall back to Amdahl.
		sigma, kappa = s1y/s11, 0
	}
	if kappa < 0 {
		// No coherency term: the curve bends the Amdahl way only.
		sigma, kappa = s1y/s11, 0
	}
	if sigma < 0 {
		// Pure-coherency curve: serial fraction pinned at zero.
		sigma, kappa = 0, s2y/s22
		if kappa < 0 {
			kappa = 0
		}
	}
	f := Fit{Sigma: clamp01(sigma), Kappa: kappa}
	f.R2, f.RMSE = quality(f, points)
	return f, nil
}

// quality computes R² and RMSE of a fit over the measured speedups.
func quality(f Fit, points []Point) (r2, rmse float64) {
	var mean float64
	for _, p := range points {
		mean += p.Speedup
	}
	mean /= float64(len(points))
	var ssRes, ssTot float64
	for _, p := range points {
		d := p.Speedup - f.Speedup(float64(p.Threads))
		ssRes += d * d
		t := p.Speedup - mean
		ssTot += t * t
	}
	rmse = math.Sqrt(ssRes / float64(len(points)))
	if ssTot == 0 {
		// A flat sweep has no variance to explain; a zero-residual fit is
		// perfect, anything else is not.
		if ssRes == 0 {
			return 1, 0
		}
		return 0, rmse
	}
	return 1 - ssRes/ssTot, rmse
}

// Classify buckets a validated sweep against its measured peak, which it
// also returns: negative when the top of the sweep has fallen below
// NegativeDropFrac of the peak, linear when the top still runs at
// LinearEfficiency or better, saturated otherwise.
func Classify(points []Point) (Class, Point) {
	peak := points[0]
	for _, p := range points[1:] {
		if p.Speedup > peak.Speedup {
			peak = p
		}
	}
	last := points[len(points)-1]
	switch {
	case last.Speedup < NegativeDropFrac*peak.Speedup:
		return ClassNegative, peak
	case last.Speedup/float64(last.Threads) >= LinearEfficiency:
		return ClassLinear, peak
	default:
		return ClassSaturated, peak
	}
}

// SigmaFromStack converts a speedup stack's serialization components
// (spinning + yielding + imbalance) into the Amdahl serial fraction that
// would cost the same capacity at the stack's thread count: the stack loses
// fraction s = (spin+yield+imbalance)/(N·Tp) of ideal speedup, and Amdahl
// loses σ(N−1)/(1+σ(N−1)), so σ = s/((1−s)(N−1)).
func SigmaFromStack(st core.Stack) float64 {
	if st.N <= 1 || st.Tp == 0 {
		return 0
	}
	cap := float64(st.N) * float64(st.Tp)
	s := (st.Components.Spin + st.Components.Yield + st.Components.Imbalance) / cap
	if s < 0 {
		s = 0
	}
	if s >= 1 {
		return 1
	}
	return clamp01(s / ((1 - s) * float64(st.N-1)))
}

// Build assembles the full advisor answer for one measured sweep of spec:
// the fits over points, which must be ascending by thread count, and, from
// st, the speedup stack at the top of the sweep, the serial-fraction
// cross-check and the ranked spec-field recommendations.
func Build(label string, spec workload.Spec, points []Point, st core.Stack) (Advice, error) {
	amdahl, err := FitAmdahl(points)
	if err != nil {
		return Advice{}, err
	}
	usl, err := FitUSL(points)
	if err != nil {
		return Advice{}, err
	}
	class, peak := Classify(points)
	a := Advice{
		Benchmark:   label,
		MaxThreads:  points[len(points)-1].Threads,
		Points:      append([]Point(nil), points...),
		Amdahl:      amdahl,
		USL:         usl,
		NStar:       usl.NStar(),
		Class:       class,
		PeakSpeedup: peak.Speedup,
		PeakThreads: peak.Threads,
		SigmaStack:  SigmaFromStack(st),
	}
	a.SigmaAgrees = math.Abs(a.SigmaStack-amdahl.Sigma) <= SigmaAgreementBound
	a.Recommendations = recommend(&spec, st, usl)
	if len(a.Recommendations) > 0 {
		a.Bottleneck = a.Recommendations[0].Component
	}
	return a, nil
}

// recommend builds the ranked spec-field recommendations from the stack
// components at the top of the sweep. Components below the stack package's
// negligibility threshold produce nothing; the rest are ranked by their cost
// in speedup units.
func recommend(spec *workload.Spec, st core.Stack, usl Fit) []Recommendation {
	ranked := stack.Ranked(st)
	recs := make([]Recommendation, 0, len(ranked))
	for _, d := range ranked {
		r := recommendOne(spec, d.Name, usl)
		r.Component = d.Name
		r.Impact = round4(d.Value)
		recs = append(recs, r)
	}
	return recs
}

// recommendOne maps one dominant component onto the spec field most directly
// responsible for it, given the workload's structure.
func recommendOne(spec *workload.Spec, component string, usl Fit) Recommendation {
	switch component {
	case stack.CompSpinning:
		switch {
		case spec.Kind == workload.KindTaskQueue:
			return Recommendation{
				Field:  "dispatch_instr",
				Action: "shrink the serial dispatch critical section",
				Detail: fmt.Sprintf("every item takes the global task lock for %d instructions; fitted contention κ=%.2g — shrink dispatch_instr or pre-partition the %d items so threads stop queueing on one lock",
					spec.DispatchInstr, usl.Kappa, spec.Items),
			}
		case spec.CSInstr > 0 && spec.CSPerThreadPerPhase > 0:
			locks := spec.NumLocks
			if locks == 0 {
				locks = 1
			}
			return Recommendation{
				Field:  "cs_instr",
				Action: "shrink the critical section or shard the lock",
				Detail: fmt.Sprintf("criticalSectionOps dominate: %d instructions per section, %d sections per thread-phase across %d lock(s); fitted contention κ=%.2g — shrink cs_instr or raise num_locks to spread waiters",
					spec.CSInstr, spec.CSPerThreadPerPhase, locks, usl.Kappa),
			}
		case spec.LockGrace >= 1<<30:
			return Recommendation{
				Field:  "lock_grace",
				Action: "let blocked threads yield instead of spinning",
				Detail: fmt.Sprintf("lock_grace=%d keeps waiters spinning for their whole wait (SPLASH-2-style locks); lowering it parks blocked threads and frees their cores", spec.LockGrace),
			}
		default:
			return Recommendation{
				Field:  "barrier_grace",
				Action: "shorten the barrier spin grace",
				Detail: "threads burn cycles spinning at barriers before parking; a shorter barrier_grace converts the spin tail into cheap yields",
			}
		}
	case stack.CompYielding:
		if spec.Kind == workload.KindPipeline {
			if i, w := heaviestSerialStage(spec); i >= 0 {
				return Recommendation{
					Field:  fmt.Sprintf("stages[%d].serial", i),
					Action: "parallelize the heaviest serial stage",
					Detail: fmt.Sprintf("serial stage %d carries %.0f%% of per-item work and caps speedup near %.1f whatever the thread count; fitted serial fraction σ=%.3f — make the stage parallel or split its work",
						i, 100*w, 1/w, usl.Sigma),
				}
			}
			return Recommendation{
				Field:  "queue_cap",
				Action: "deepen the inter-stage queues",
				Detail: fmt.Sprintf("starved stages park on queue_cap=%d bounded queues; deeper queues smooth stage imbalance", spec.QueueCap),
			}
		}
		if spec.Kind == workload.KindTaskQueue {
			return Recommendation{
				Field:  "dispatch_instr",
				Action: "cut the serial work under the task lock",
				Detail: fmt.Sprintf("threads park waiting for the dispenser lock (%d instructions per item); fitted serial fraction σ=%.3f — shrink dispatch_instr or batch items per dispatch",
					spec.DispatchInstr, usl.Sigma),
			}
		}
		if e := spec.EffectiveParallelism; e > 0 {
			return Recommendation{
				Field:  "effective_parallelism",
				Action: "rebalance the per-thread work shares",
				Detail: fmt.Sprintf("work shares are skewed so speedup saturates near %.1f threads (fitted serial fraction σ=%.3f); flattening the distribution raises effective_parallelism toward the thread count", e, usl.Sigma),
			}
		}
		return Recommendation{
			Field:  "phases",
			Action: "merge barrier-separated phases",
			Detail: fmt.Sprintf("threads park at %d barrier(s) per run waiting for stragglers; fewer, longer phases amortize the synchronization", spec.Phases),
		}
	case stack.CompImbalance:
		if e := spec.EffectiveParallelism; e > 0 {
			return Recommendation{
				Field:  "effective_parallelism",
				Action: "balance the final phase's work shares",
				Detail: fmt.Sprintf("the slowest thread finishes last while the rest idle (shares skewed to saturate near %.1f threads); balancing the tail phase reclaims the idle capacity", e),
			}
		}
		return Recommendation{
			Field:  "items",
			Action: "split work into more, smaller units",
			Detail: "end-of-run imbalance means the last units of work are too coarse; more items give the scheduler room to even threads out",
		}
	case stack.CompMemory:
		return Recommendation{
			Field:  "instr_per_access",
			Action: "raise the compute-per-access ratio",
			Detail: fmt.Sprintf("one modeled access per %d instructions keeps the DRAM banks contended across threads (store fraction %.2f); more compute per access — or fewer stores — cuts the queueing",
				spec.InstrPerAccess, spec.StoreFrac),
		}
	case stack.CompCache:
		return Recommendation{
			Field:  "array_bytes",
			Action: "shrink the per-thread working set",
			Detail: fmt.Sprintf("the combined working set (array_bytes=%d, shared_bytes=%d) thrashes the shared LLC; smaller slices or more temporal reuse (sweeps_per_phase) turn inter-thread evictions back into hits",
				spec.ArrayBytes, spec.SharedBytes),
		}
	}
	panic("scaling: stack.Ranked yielded unknown component " + component)
}

// heaviestSerialStage returns the index and normalized weight of the
// heaviest serial pipeline stage, or (-1, 0) when none is serial.
func heaviestSerialStage(spec *workload.Spec) (int, float64) {
	var total float64
	for _, st := range spec.Stages {
		total += st.Weight
	}
	best, bestW := -1, 0.0
	for i, st := range spec.Stages {
		if st.Serial && st.Weight > bestW {
			best, bestW = i, st.Weight
		}
	}
	if best < 0 || total <= 0 {
		return -1, 0
	}
	return best, bestW / total
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
