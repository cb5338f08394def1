package whatif

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/stack"
)

// Encode writes a Report to w in the requested format, reusing the stack
// package's format vocabulary: text is the human-readable ranking, JSON the
// Report object, CSV one record per prediction, and SVG the baseline and
// per-intervention re-simulated stacks as one bar chart.
func Encode(w io.Writer, f stack.Format, r Report) error {
	switch f {
	case stack.FormatText, "":
		_, err := io.WriteString(w, Text(r))
		return err
	case stack.FormatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	case stack.FormatNDJSON:
		return json.NewEncoder(w).Encode(r)
	case stack.FormatCSV:
		return encodeCSV(w, r)
	case stack.FormatSVG:
		if len(r.Bars) == 0 {
			return fmt.Errorf("whatif: report carries no stacks to draw (SVG needs a locally-computed report)")
		}
		return stack.Encode(w, stack.FormatSVG, r.Bars)
	}
	return fmt.Errorf("whatif: unknown format %q", f)
}

// Text renders the human-readable what-if report: the baseline, then every
// applicable intervention ranked by predicted gain, each with its concrete
// mutation and its predicted-vs-resimulated outcome.
func Text(r Report) string {
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

// encodeCSV writes one record per prediction; the per-report baseline
// repeats on every record so the file stays a single flat table.
func encodeCSV(w io.Writer, r Report) error {
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
	return stack.WriteCSV(w, header, records)
}
