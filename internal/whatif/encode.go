package whatif

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/stack"
)

// Encode is stack.EncodeDocument(w, f, r); it survives as a name because
// benchmark/probes.go compiles against it.
func Encode(w io.Writer, f stack.Format, r Report) error { return stack.EncodeDocument(w, f, r) }

// JSON is the Report object itself (Bars is not part of the wire form).
func (r Report) JSON() any { return r }

// SVG draws the report's stacks; only a locally-computed report carries them.
func (r Report) SVG(w io.Writer) error {
	if len(r.Bars) == 0 {
		return fmt.Errorf("whatif: report carries no stacks to draw (SVG needs a locally-computed report)")
	}
	return stack.Bars(r.Bars).SVG(w)
}

// Text renders the human-readable what-if report: the baseline, then every
// applicable intervention ranked by predicted gain, each with its concrete
// mutation and its predicted-vs-resimulated outcome.
func (r Report) Text() string {
	var b strings.Builder
	label := fmt.Sprintf("%s x%d", r.Benchmark, r.Threads)
	if r.Cores != 0 && r.Cores != r.Threads {
		label += fmt.Sprintf(" on %d cores", r.Cores)
	}
	fmt.Fprintf(&b, "what-if analysis: %s\n", label)
	fmt.Fprintf(&b, "baseline: speedup %.2f (estimated %.2f)\n", r.BaselineSpeedup, r.BaselineEstimated)
	if len(r.Predictions) == 0 {
		b.WriteString("\nno catalog intervention applies to this workload\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\n%4s %-18s %-10s %9s %9s %9s %9s %8s\n",
		"rank", "intervention", "component", "predicted", "actual", "gain(est)", "gain(sim)", "error")
	for i, p := range r.Predictions {
		fmt.Fprintf(&b, "%3d. %-18s %-10s %9.2f %9.2f %+9.2f %+9.2f %+8.3f\n",
			i+1, p.Intervention, p.Component, p.PredictedSpeedup, p.ActualSpeedup,
			p.PredictedGain, p.ActualGain, p.Error)
		fmt.Fprintf(&b, "     %s (%s)\n", p.Summary, p.Mutation)
	}
	b.WriteString("\nranked by predicted gain; error = (predicted - resimulated speedup)/N, the paper's Formula (6) normalization\n")
	return b.String()
}

// CSV is one record per prediction; the per-report baseline repeats on
// every record so the file stays a single flat table.
func (r Report) CSV() ([]string, [][]string) {
	f := stack.CSVFloat
	header := []string{"benchmark", "threads", "baseline_speedup", "intervention", "component",
		"mutation", "predicted_speedup", "actual_speedup", "predicted_gain", "actual_gain", "error"}
	records := make([][]string, len(r.Predictions))
	for i, p := range r.Predictions {
		records[i] = []string{
			r.Benchmark, strconv.Itoa(r.Threads), f(r.BaselineSpeedup),
			p.Intervention, p.Component, p.Mutation,
			f(p.PredictedSpeedup), f(p.ActualSpeedup),
			f(p.PredictedGain), f(p.ActualGain), f(p.Error),
		}
	}
	return header, records
}
