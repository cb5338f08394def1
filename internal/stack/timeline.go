package stack

import (
	"io"
	"strconv"
)

// SVG rendering of a time-resolved speedup stack: the run's committed ops
// on the x axis, and for each interval a stacked column whose bands show
// the fraction of the interval's thread-cycle capacity (N × wall cycles)
// lost to each scaling delimiter. Columns are as wide as the op range they
// cover, so the chart reads as a stacked timeline: phase changes show up as
// the bottleneck mix shifting along x. It draws on the aggregate chart's
// canvas (svg.go); transiently negative interval components are clamped to
// zero visually (the exact values live in the JSON/CSV encodings).

// timelineBands returns the interval's drawable band heights as fractions
// of its capacity, in components order, clamping negatives to zero. Only the
// delimiters are bands: the base speedup and positive interference stay 0.
func timelineBands(iv Interval, n int) (out [len(components)]float64) {
	cap := iv.Capacity(n)
	if cap <= 0 {
		return out
	}
	c := iv.Components
	for i, v := range [len(components)]int64{0, 0, c.NegLLC - c.PosLLC, c.NegMem, c.Spin, c.Yield, c.Imbalance} {
		if v > 0 {
			out[i] = float64(v) / float64(cap)
		}
	}
	return out
}

// SVG writes the stacked-timeline SVG document for the series to w.
func (ts TimeSeries) SVG(w io.Writer) error {
	const (
		marginL = 52.0
		plotW   = 640.0
		plotH   = 260.0
		axisH   = 40.0
		legendW = 230.0
	)

	// y scale: 0..yMax fraction of capacity, padded to the next 5% step so
	// the tallest column keeps headroom.
	yMax := 0.0
	for _, iv := range ts.Intervals {
		total := 0.0
		for _, v := range timelineBands(iv, ts.Stack.N) {
			total += v
		}
		yMax = max(yMax, total)
	}
	// Pad to the next 5% step. The scale may exceed 100%: components are
	// attributed when the accounting hardware records them (a wait charges
	// its yield at resume), so a slice that absorbs waits begun earlier can
	// exceed its own capacity — that spike is the signal phase analysis is
	// after.
	yMax = float64(int(yMax*20)+1) / 20
	y := func(v float64) float64 { return svgTop + plotH - v/yMax*plotH }
	x := func(ops uint64) float64 {
		if ts.TotalOps == 0 {
			return marginL
		}
		return marginL + float64(ops)/float64(ts.TotalOps)*plotW
	}

	c := newCanvas(marginL, plotW, marginL+plotW+legendW, svgTop+plotH+axisH, "Speedup-stack timeline",
		"Speedup-stack timeline — "+ts.Label+" (N="+strconv.Itoa(ts.Stack.N)+")", "capacity lost")
	// Horizontal grid: 4 steps plus the darker baseline, labels in percent.
	for i := 0; i <= 4; i++ {
		v := yMax * float64(i) / 4
		c.gridRow(y(v), i == 0, string(append(appendFixed(nil, v*100, 0), '%')))
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
		cum := 0.0
		for si, v := range timelineBands(iv, ts.Stack.N) {
			if v <= 0 {
				continue
			}
			top, bot := y(cum+v), y(cum)
			cum += v
			if bot-top < 0.6 {
				continue
			}
			c.raw(`<rect x="`).num(x0).raw(`" y="`).num(top).raw(`" width="`).num(x1 - x0).raw(`" height="`).num(bot - top).
				raw(`" fill="`).raw(svgSeries[si]).raw(`"><title>interval `).uint(uint64(iv.Index)).raw(" (ops ").uint(iv.StartOps).
				raw("-").uint(iv.EndOps).raw("): ").raw(components[si].name).raw(" ").num(v * 100).raw("%</title></rect>\n")
		}
	}

	// x axis: committed-op ticks at quarters of the run.
	axisY := svgTop + plotH
	for i := 0; i <= 4; i++ {
		ops := ts.TotalOps / 4 * uint64(i)
		if i == 4 {
			ops = ts.TotalOps
		}
		xx := x(ops)
		c.line(xx, axisY, xx, axisY+4, svgBaseline, "")
		a := anchorMiddle
		if i == 0 {
			a = anchorStart
		} else if i == 4 {
			a = anchorEnd
		}
		c.text(xx, axisY+18, svgMuted, a, fmtOps(ops))
	}
	c.text(marginL+plotW/2, axisY+34, svgInk2, anchorMiddle, "committed ops")

	// Legend: the delimiters, in the aggregate chart's colours.
	row := 0
	for si, comp := range components {
		if comp.key != "" {
			c.swatch(row, si)
			row++
		}
	}
	return c.finish(w)
}

// fmtOps formats an op count compactly for axis labels (1234567 → "1.2M").
func fmtOps(n uint64) string {
	switch {
	case n >= 10_000_000:
		return strconv.FormatUint(n/1_000_000, 10) + "M"
	case n >= 1_000_000:
		return string(append(appendFixed(nil, float64(n)/1e6, 1), 'M'))
	case n >= 10_000:
		return strconv.FormatUint(n/1000, 10) + "k"
	case n >= 1_000:
		return string(append(appendFixed(nil, float64(n)/1e3, 1), 'k'))
	default:
		return strconv.FormatUint(n, 10)
	}
}
