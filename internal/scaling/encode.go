package scaling

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/stack"
)

// Encode is stack.EncodeDocument(w, f, a); it survives as a name because
// benchmark/probes.go compiles against it.
func Encode(w io.Writer, f stack.Format, a Advice) error { return stack.EncodeDocument(w, f, a) }

// JSON is the Advice object itself.
func (a Advice) JSON() any { return a }

// SVG draws the fit-overlay chart.
func (a Advice) SVG(w io.Writer) error { return stack.EncodeCurveSVG(w, a.Chart()) }

// Text renders the human-readable advisor report: the sweep with both fitted
// models alongside, the fit parameters, the classification, the stack
// cross-check, and the ranked recommendations.
func (a Advice) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s scaling (peak %.2fx at %d threads)\n",
		a.Benchmark, a.Class, a.PeakSpeedup, a.PeakThreads)
	fmt.Fprintf(&b, "\n%8s %10s %10s %10s\n", "threads", "measured", "amdahl", "usl")
	for _, p := range a.Points {
		n := float64(p.Threads)
		fmt.Fprintf(&b, "%8d %10.2f %10.2f %10.2f\n",
			p.Threads, p.Speedup, a.Amdahl.Speedup(n), a.USL.Speedup(n))
	}
	fmt.Fprintf(&b, "\namdahl: sigma=%.4f (R2=%.3f)\n", a.Amdahl.Sigma, a.Amdahl.R2)
	fmt.Fprintf(&b, "usl:    sigma=%.4f kappa=%.3g (R2=%.3f)\n", a.USL.Sigma, a.USL.Kappa, a.USL.R2)
	if a.NStar > 0 {
		fmt.Fprintf(&b, "n*:     %.1f threads (diminishing returns beyond this)\n", a.NStar)
	} else {
		fmt.Fprintf(&b, "n*:     unbounded (fitted curve never turns over)\n")
	}
	if a.SigmaStack > 0 || a.Bottleneck != "" {
		agree := "agrees"
		if !a.SigmaAgrees {
			agree = "DISAGREES"
		}
		fmt.Fprintf(&b, "stack:  implied sigma=%.4f vs amdahl %.4f (%s, bound %.2f)",
			a.SigmaStack, a.Amdahl.Sigma, agree, SigmaAgreementBound)
		if a.Bottleneck != "" {
			fmt.Fprintf(&b, "; dominant component: %s", a.Bottleneck)
		}
		b.WriteByte('\n')
		if !a.SigmaAgrees {
			b.WriteString("        the curve's shape is not explained by serialization alone;\n" +
				"        look at the cache/memory components of the stack\n")
		}
	}
	if len(a.Recommendations) > 0 {
		b.WriteString("\nrecommendations (largest impact first):\n")
		for i, r := range a.Recommendations {
			field := r.Field
			if field == "" {
				field = "-"
			}
			fmt.Fprintf(&b, "%2d. [%s, %.2f speedup units] %s: %s\n      %s\n",
				i+1, r.Component, r.Impact, field, r.Action, r.Detail)
			if r.Intervention != "" {
				fmt.Fprintf(&b, "      what-if: %s predicts %+.2f speedup (validate via the what-if report)\n",
					r.Intervention, r.PredictedGain)
			}
		}
	} else {
		b.WriteString("\nno significant scaling delimiters; nothing to recommend\n")
	}
	return b.String()
}

// CSV is one record per sweep point; the per-workload fit results
// (parameters, N*, classification) repeat on every record so the file stays
// a single flat table.
func (a Advice) CSV() ([]string, [][]string) {
	f := stack.CSVFloat
	header := []string{"benchmark", "threads", "measured", "amdahl", "usl",
		"sigma", "kappa", "n_star", "classification", "sigma_stack", "sigma_agrees"}
	records := make([][]string, len(a.Points))
	for i, p := range a.Points {
		n := float64(p.Threads)
		records[i] = []string{
			a.Benchmark, strconv.Itoa(p.Threads), f(p.Speedup),
			f(a.Amdahl.Speedup(n)), f(a.USL.Speedup(n)),
			f(a.USL.Sigma), f(a.USL.Kappa), f(a.NStar),
			string(a.Class), f(a.SigmaStack), strconv.FormatBool(a.SigmaAgrees),
		}
	}
	return header, records
}

// Chart builds the fit-overlay curve chart: measured sweep with markers,
// both fitted models dashed, the ideal-scaling reference, and an N* marker
// when the fitted optimum lies inside the swept range.
func (a Advice) Chart() stack.CurveChart {
	measured := stack.CurveSeries{Name: "measured", Marker: true}
	for _, p := range a.Points {
		measured.Points = append(measured.Points, stack.CurvePoint{X: float64(p.Threads), Y: p.Speedup})
	}
	sample := func(f Fit) []stack.CurvePoint {
		max := float64(a.MaxThreads)
		pts := make([]stack.CurvePoint, 0, 2*a.MaxThreads)
		for n := 1.0; n < max; n += 0.5 {
			pts = append(pts, stack.CurvePoint{X: n, Y: f.Speedup(n)})
		}
		return append(pts, stack.CurvePoint{X: max, Y: f.Speedup(max)})
	}
	c := stack.CurveChart{
		Title:  fmt.Sprintf("%s: scaling fit (%s)", a.Benchmark, a.Class),
		XLabel: "threads",
		YLabel: "speedup",
		Series: []stack.CurveSeries{
			measured,
			{Name: fmt.Sprintf("amdahl σ=%.3f", a.Amdahl.Sigma), Points: sample(a.Amdahl), Dashed: true},
			{Name: fmt.Sprintf("usl σ=%.3f κ=%.2g", a.USL.Sigma, a.USL.Kappa), Points: sample(a.USL), Dashed: true},
		},
	}
	if a.NStar > 0 && a.NStar <= float64(a.MaxThreads) {
		c.VLines = append(c.VLines, stack.CurveVLine{X: a.NStar, Label: fmt.Sprintf("N*=%.1f", a.NStar)})
	}
	return c
}
