package stack

import (
	"io"
	"math"
	"strconv"
)

// Curve charts: the line-chart half of the design system, used by the
// scaling advisor to overlay fitted Amdahl/USL curves on a measured thread
// sweep. The chart draws on the bar chart's canvas (svg.go), so every SVG the
// repo emits looks like one family: measured data wears solid lines with
// point markers, fitted models wear dashed lines, and vertical annotation
// lines (e.g. the USL optimum N*) are recessive hairlines with muted labels.

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
	// VLines are vertical annotations (drawn behind the series).
	VLines []CurveVLine
}

// EncodeCurveSVG writes the chart to w as a standalone SVG document.
func EncodeCurveSVG(w io.Writer, ch CurveChart) error {
	const (
		marginL = 46.0
		marginB = 40.0
		plotW   = 420.0
		plotH   = 280.0
		legendW = 190.0
	)

	// Scales: 0..max on both axes, from the data (plus annotations and the
	// ideal line, which runs to the x extent).
	xMax, yMax := 1.0, 1.0
	for _, s := range ch.Series {
		for _, p := range s.Points {
			xMax = math.Max(xMax, p.X)
			yMax = math.Max(yMax, p.Y)
		}
	}
	for _, v := range ch.VLines {
		xMax = math.Max(xMax, v.X)
	}
	yMax = math.Ceil(math.Max(yMax, xMax))
	x := func(v float64) float64 { return marginL + v/xMax*plotW }
	y := func(v float64) float64 { return svgTop + plotH - v/yMax*plotH }

	c := newCanvas(marginL, plotW, marginL+plotW+legendW, svgTop+plotH+marginB, ch.Title, ch.Title, ch.YLabel)
	for v, step := 0.0, tickStep(yMax); v <= yMax+1e-9; v += step {
		c.gridRow(y(v), v == 0, tickLabel(v))
	}
	for v, step := 0.0, tickStep(xMax); v <= xMax+1e-9; v += step {
		c.text(x(v), svgTop+plotH+16, svgMuted, anchorMiddle, tickLabel(v))
	}
	c.text(marginL+plotW, svgTop+plotH+32, svgMuted, anchorEnd, ch.XLabel)

	// Annotations behind the data: the y = x ideal-scaling line, the VLines.
	top := math.Min(xMax, yMax)
	c.line(x(0), y(0), x(top), y(top), svgBaseline, ` stroke-dasharray="2 3"`)
	for _, v := range ch.VLines {
		xx := x(v.X)
		c.line(xx, svgTop, xx, svgTop+plotH, svgBaseline, ` stroke-dasharray="4 3"`)
		c.text(xx, svgTop-8, svgMuted, anchorMiddle, v.Label)
	}

	// Series: fixed categorical slot per index, solid for data, dashed for
	// fits, circular markers where requested.
	style := func(si int) (color, dash string) {
		if ch.Series[si].Dashed {
			dash = ` stroke-dasharray="5 4"`
		}
		return svgSeries[si%len(svgSeries)], dash
	}
	for si, s := range ch.Series {
		color, dash := style(si)
		if len(s.Points) > 1 {
			c.raw(`<path d="`)
			for i, p := range s.Points {
				cmd := "L"
				if i == 0 {
					cmd = "M"
				}
				c.raw(cmd).num(x(p.X)).raw(" ").num(y(p.Y))
			}
			c.raw(`" fill="none" stroke="`).raw(color).raw(`" stroke-width="2"`).raw(dash).raw("/>\n")
		}
		if s.Marker {
			for _, p := range s.Points {
				c.circleOpen(x(p.X), y(p.Y), color).raw(`><title>`).esc(s.Name).raw(": (")
				*c.b = strconv.AppendFloat(append(strconv.AppendFloat(*c.b, p.X, 'g', 4, 64), ", "...), p.Y, 'g', 4, 64) // fmt's %.4g
				c.raw(")</title></circle>\n")
			}
		}
	}

	// Legend: swatch lines mirroring each series' style.
	for si, s := range ch.Series {
		color, dash := style(si)
		lx, yy := c.legendRow(si)
		c.lineOpen(lx, yy+6, lx+16, yy+6, color).raw(` stroke-width="2"`).raw(dash).raw("/>\n")
		if s.Marker {
			c.circleOpen(lx+8, yy+6, color).raw("/>\n")
		}
		c.text(lx+22, yy+10, svgInk2, "", s.Name)
	}
	return c.finish(w)
}

// circleOpen writes a point marker up to its closing bracket.
func (c *canvas) circleOpen(cx, cy float64, fill string) *canvas {
	return c.raw(`<circle cx="`).num(cx).raw(`" cy="`).num(cy).raw(`" r="3.5" fill="`).raw(fill).
		raw(`" stroke="` + svgSurface + `" stroke-width="1"`)
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
		return string(appendFixed(nil, v, 0))
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
