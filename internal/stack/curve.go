package stack

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Curve charts: the line-chart half of the design system, used by the
// scaling advisor to overlay fitted Amdahl/USL curves on a measured thread
// sweep. The chart shares the bar chart's tokens (surface, ink, grid,
// categorical series colors) so every SVG the repo emits looks like one
// family: measured data wears solid lines with point markers, fitted models
// wear dashed lines, and vertical annotation lines (e.g. the USL optimum N*)
// are recessive hairlines with muted labels.

// CurvePoint is one (x, y) sample of a curve series.
type CurvePoint struct {
	X, Y float64
}

// CurveSeries is one named line on a curve chart.
type CurveSeries struct {
	// Name labels the series in the legend.
	Name string
	// Points are the polyline vertices, ascending by X.
	Points []CurvePoint
	// Dashed draws the line dashed (fitted models); Marker adds circular
	// point markers (measured data).
	Dashed bool
	Marker bool
}

// CurveVLine is a labeled vertical annotation line.
type CurveVLine struct {
	X     float64
	Label string
}

// CurveChart is a standalone line chart in the repo's SVG design system.
type CurveChart struct {
	Title  string
	XLabel string
	YLabel string
	Series []CurveSeries
	// Ideal draws the y = x reference (ideal scaling) as a recessive line.
	Ideal bool
	// VLines are vertical annotations (drawn behind the series).
	VLines []CurveVLine
}

// EncodeCurveSVG writes the chart to w as a standalone SVG document.
func EncodeCurveSVG(w io.Writer, c CurveChart) error {
	b := new(strings.Builder)
	const (
		marginL = 46.0
		marginT = 48.0
		marginB = 40.0
		plotW   = 420.0
		plotH   = 280.0
		legendW = 190.0
	)
	width := marginL + plotW + legendW
	height := marginT + plotH + marginB

	// Scales: 0..max on both axes, from the data (plus annotations and the
	// ideal line, which runs to the x extent).
	xMax, yMax := 1.0, 1.0
	for _, s := range c.Series {
		for _, p := range s.Points {
			xMax = math.Max(xMax, p.X)
			yMax = math.Max(yMax, p.Y)
		}
	}
	for _, v := range c.VLines {
		xMax = math.Max(xMax, v.X)
	}
	if c.Ideal {
		yMax = math.Max(yMax, xMax)
	}
	yMax = math.Ceil(yMax)
	x := func(v float64) float64 { return marginL + v/xMax*plotW }
	y := func(v float64) float64 { return marginT + plotH - v/yMax*plotH }
	xTick := tickStep(xMax)
	yTick := tickStep(yMax)

	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img" aria-label="%s">`+"\n",
		width, height, width, height, xmlEscape(c.Title))
	fmt.Fprintf(b, `<rect width="%.0f" height="%.0f" fill="%s"/>`+"\n", width, height, svgSurface)
	fmt.Fprintf(b, `<text x="%.1f" y="24" font-family='%s' font-size="14" font-weight="600" fill="%s">%s</text>`+"\n",
		marginL, svgFont, svgInk, xmlEscape(c.Title))
	if c.YLabel != "" {
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">%s</text>`+"\n",
			marginL, marginT-8, svgFont, svgMuted, xmlEscape(c.YLabel))
	}

	// Grid and ticks (hairline, recessive; baseline darker).
	for v := 0.0; v <= yMax+1e-9; v += yTick {
		yy := y(v)
		color := svgGrid
		if v == 0 {
			color = svgBaseline
		}
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
			marginL, yy, marginL+plotW, yy, color)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			marginL-6, yy+4, svgFont, svgMuted, tickLabel(v))
	}
	for v := 0.0; v <= xMax+1e-9; v += xTick {
		xx := x(v)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
			xx, marginT+plotH+16, svgFont, svgMuted, tickLabel(v))
	}
	if c.XLabel != "" {
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			marginL+plotW, marginT+plotH+32, svgFont, svgMuted, xmlEscape(c.XLabel))
	}

	// Annotations behind the data: ideal-scaling reference and vertical lines.
	if c.Ideal {
		top := math.Min(xMax, yMax)
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1" stroke-dasharray="2 3"/>`+"\n",
			x(0), y(0), x(top), y(top), svgBaseline)
	}
	for _, v := range c.VLines {
		xx := x(v.X)
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1" stroke-dasharray="4 3"/>`+"\n",
			xx, marginT, xx, marginT+plotH, svgBaseline)
		if v.Label != "" {
			fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
				xx, marginT-8, svgFont, svgMuted, xmlEscape(v.Label))
		}
	}

	// Series: fixed categorical slot per index, solid for data, dashed for
	// fits, circular markers where requested.
	for si, s := range c.Series {
		color := svgSeries[si%len(svgSeries)]
		if len(s.Points) > 1 {
			var path strings.Builder
			for i, p := range s.Points {
				cmd := 'L'
				if i == 0 {
					cmd = 'M'
				}
				fmt.Fprintf(&path, "%c%.1f %.1f", cmd, x(p.X), y(p.Y))
			}
			dash := ""
			if s.Dashed {
				dash = ` stroke-dasharray="5 4"`
			}
			fmt.Fprintf(b, `<path d="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
				path.String(), color, dash)
		}
		if s.Marker {
			for _, p := range s.Points {
				fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s" stroke="%s" stroke-width="1">`,
					x(p.X), y(p.Y), color, svgSurface)
				fmt.Fprintf(b, `<title>%s: (%.4g, %.4g)</title></circle>`+"\n", xmlEscape(s.Name), p.X, p.Y)
			}
		}
	}

	// Legend: swatch lines mirroring each series' style.
	lx := marginL + plotW + 24
	for si, s := range c.Series {
		yy := marginT + 4 + float64(si)*20
		color := svgSeries[si%len(svgSeries)]
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="5 4"`
		}
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"%s/>`+"\n",
			lx, yy+6, lx+16, yy+6, color, dash)
		if s.Marker {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s" stroke="%s" stroke-width="1"/>`+"\n",
				lx+8, yy+6, color, svgSurface)
		}
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">%s</text>`+"\n",
			lx+22, yy+10, svgFont, svgInk2, xmlEscape(s.Name))
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// tickStep picks a 1/2/5-scaled tick interval giving at most ~8 ticks.
func tickStep(max float64) float64 {
	step := 1.0
	for max/step > 8 {
		switch {
		case max/(step*2) <= 8:
			step *= 2
		case max/(step*5) <= 8:
			step *= 5
		default:
			step *= 10
		}
	}
	return step
}

// tickLabel formats a tick value without trailing zeros.
func tickLabel(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}
