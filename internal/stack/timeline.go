package stack

import (
	"fmt"
	"io"
	"strings"
)

// SVG rendering of a time-resolved speedup stack: the run's committed ops
// on the x axis, and for each interval a stacked column whose bands show
// the fraction of the interval's thread-cycle capacity (N × wall cycles)
// lost to each scaling delimiter. Columns are as wide as the op range they
// cover, so the chart reads as a stacked timeline: phase changes show up as
// the bottleneck mix shifting along x. Colors, fonts and grid styling are
// shared with the aggregate bar chart (svg.go); transiently negative
// interval components are clamped to zero visually (the exact values live
// in the JSON/CSV encodings).

// timelineSeries maps the timeline's stacked bands onto the fixed
// categorical slots of svgSeries, so a component wears the same color in
// the aggregate chart and the timeline.
var timelineSeries = []struct {
	name string
	slot int // index into svgSeries
}{
	{"net negative LLC interference", 2},
	{"negative memory interference", 3},
	{"spinning", 4},
	{"yielding", 5},
	{"imbalance", 6},
}

// timelineBands returns the interval's drawable band heights as fractions
// of its capacity, in timelineSeries order, clamping negatives to zero.
func timelineBands(iv Interval, n int) [5]float64 {
	var out [5]float64
	cap := iv.Capacity(n)
	if cap <= 0 {
		return out
	}
	net := iv.Components.NegLLC - iv.Components.PosLLC
	vals := [5]int64{net, iv.Components.NegMem, iv.Components.Spin,
		iv.Components.Yield, iv.Components.Imbalance}
	for i, v := range vals {
		if v > 0 {
			out[i] = float64(v) / float64(cap)
		}
	}
	return out
}

// SVG writes the stacked-timeline SVG document for the series to w.
func (ts TimeSeries) SVG(w io.Writer) error {
	b := new(strings.Builder)
	const (
		marginL = 52.0
		marginT = 48.0
		plotW   = 640.0
		plotH   = 260.0
		axisH   = 40.0
		legendW = 230.0
	)
	width := marginL + plotW + legendW
	height := marginT + plotH + axisH

	// y scale: 0..yMax fraction of capacity, padded to the next 5% step so
	// the tallest column keeps headroom.
	yMax := 0.0
	for _, iv := range ts.Intervals {
		total := 0.0
		for _, v := range timelineBands(iv, ts.N) {
			total += v
		}
		if total > yMax {
			yMax = total
		}
	}
	// Pad to the next 5% step. The scale may exceed 100%: components are
	// attributed when the accounting hardware records them (a wait charges
	// its yield at resume), so a slice that absorbs waits begun earlier can
	// exceed its own capacity — that spike is the signal phase analysis is
	// after.
	yMax = float64(int(yMax*20)+1) / 20
	y := func(v float64) float64 { return marginT + plotH - v/yMax*plotH }
	x := func(ops uint64) float64 {
		if ts.TotalOps == 0 {
			return marginL
		}
		return marginL + float64(ops)/float64(ts.TotalOps)*plotW
	}

	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img" aria-label="Speedup-stack timeline">`+"\n",
		width, height, width, height)
	fmt.Fprintf(b, `<rect width="%.0f" height="%.0f" fill="%s"/>`+"\n", width, height, svgSurface)
	fmt.Fprintf(b, `<text x="%.1f" y="24" font-family='%s' font-size="14" font-weight="600" fill="%s">Speedup-stack timeline — %s (N=%d)</text>`+"\n",
		marginL, svgFont, svgInk, xmlEscape(ts.Label), ts.N)
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">capacity lost</text>`+"\n",
		marginL, marginT-8, svgFont, svgMuted)

	// Horizontal grid: 4 steps plus the darker baseline, labels in percent.
	for i := 0; i <= 4; i++ {
		v := yMax * float64(i) / 4
		yy := y(v)
		color := svgGrid
		if i == 0 {
			color = svgBaseline
		}
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
			marginL, yy, marginL+plotW, yy, color)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="end">%.0f%%</text>`+"\n",
			marginL-6, yy+4, svgFont, svgMuted, v*100)
	}

	// Columns: one per interval, spanning its op range, bands stacked
	// bottom-up in fixed component order with a 1px surface gap between
	// adjacent columns.
	for _, iv := range ts.Intervals {
		x0, x1 := x(iv.StartOps), x(iv.EndOps)
		if x1-x0 > 2 {
			x0, x1 = x0+0.5, x1-0.5
		}
		if x1 <= x0 {
			continue
		}
		bands := timelineBands(iv, ts.N)
		cum := 0.0
		for si, v := range bands {
			if v <= 0 {
				continue
			}
			top, bot := y(cum+v), y(cum)
			cum += v
			if bot-top < 0.6 {
				continue
			}
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s">`,
				x0, top, x1-x0, bot-top, svgSeries[timelineSeries[si].slot])
			fmt.Fprintf(b, `<title>interval %d (ops %d-%d): %s %.1f%%</title></rect>`+"\n",
				iv.Index, iv.StartOps, iv.EndOps, timelineSeries[si].name, v*100)
		}
	}

	// x axis: committed-op ticks at quarters of the run.
	axisY := marginT + plotH
	for i := 0; i <= 4; i++ {
		ops := ts.TotalOps / 4 * uint64(i)
		if i == 4 {
			ops = ts.TotalOps
		}
		xx := x(ops)
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
			xx, axisY, xx, axisY+4, svgBaseline)
		anchor := "middle"
		if i == 0 {
			anchor = "start"
		} else if i == 4 {
			anchor = "end"
		}
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="%s">%s</text>`+"\n",
			xx, axisY+18, svgFont, svgMuted, anchor, fmtOps(ops))
	}
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="middle">committed ops</text>`+"\n",
		marginL+plotW/2, axisY+34, svgFont, svgInk2)

	// Legend, matching the aggregate chart's fixed component colors.
	lx := marginL + plotW + 24
	ly := marginT + 4
	for si, s := range timelineSeries {
		yy := ly + float64(si)*20
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="12" height="12" rx="2" fill="%s"/>`+"\n",
			lx, yy, svgSeries[s.slot])
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">%s</text>`+"\n",
			lx+18, yy+10, svgFont, svgInk2, s.name)
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtOps formats an op count compactly for axis labels (1234567 → "1.2M").
func fmtOps(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%dk", n/1000)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
