package stack

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// SVG rendering of speedup stacks: one vertical stacked bar per measured
// run, components in the Figure 5 drawing order from the baseline up, a
// measured-speedup marker across each bar, gridlines at whole speedup
// units, and a legend. The output is a standalone SVG document (no external
// fonts or scripts); per-segment <title> elements give native tooltips.
//
// Styling follows a small fixed design system: categorical series colors
// are assigned to components in a fixed order (never cycled), marks are
// thin (24px bars) with 2px surface-colored gaps between stacked segments,
// grid and axes are recessive hairlines, and all text uses ink/gray text
// tokens rather than series colors.

const (
	svgSurface  = "#fcfcfb" // chart surface
	svgInk      = "#0b0b0b" // primary text, measured marker
	svgInk2     = "#52514e" // secondary text (bar labels, legend)
	svgMuted    = "#898781" // axis tick labels
	svgGrid     = "#e1e0d9" // hairline gridlines
	svgBaseline = "#c3c2b7" // axis baseline
	svgFont     = `system-ui, -apple-system, "Segoe UI", sans-serif`
)

// svgSeries is the fixed categorical assignment: component i always wears
// slot i, independent of which components a particular stack exhibits.
var svgSeries = []string{
	"#2a78d6", // base speedup
	"#eb6834", // positive LLC interference
	"#1baf7a", // net negative LLC interference
	"#eda100", // negative memory interference
	"#e87ba4", // spinning
	"#008300", // yielding
	"#4a3aa7", // imbalance
}

// SVG writes the bars to w as a standalone SVG document.
func (bars Bars) SVG(w io.Writer) error {
	b := new(strings.Builder)
	const (
		marginL = 46.0  // room for y tick labels
		marginT = 48.0  // title
		plotH   = 280.0 // plot area height
		barW    = 24.0  // bar thickness (capped per mark spec)
		step    = 46.0  // x distance between bar centers
		labelH  = 118.0 // rotated benchmark labels under the baseline
		legendW = 210.0
	)
	n := len(bars)
	if n == 0 {
		n = 1
	}
	plotW := float64(n)*step + 18
	width := marginL + plotW + legendW
	height := marginT + plotH + labelH

	// y scale: 0..yMax speedup units, yMax = the tallest stack's N.
	yMax := 1
	for _, bar := range bars {
		if bar.Stack.N > yMax {
			yMax = bar.Stack.N
		}
	}
	tick := 1
	for yMax/tick > 8 {
		tick *= 2
	}
	y := func(v float64) float64 { return marginT + plotH - v/float64(yMax)*plotH }

	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img" aria-label="Speedup stacks">`+"\n",
		width, height, width, height)
	fmt.Fprintf(b, `<rect width="%.0f" height="%.0f" fill="%s"/>`+"\n", width, height, svgSurface)
	fmt.Fprintf(b, `<text x="%.1f" y="24" font-family='%s' font-size="14" font-weight="600" fill="%s">Speedup stacks</text>`+"\n",
		marginL, svgFont, svgInk)
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">speedup</text>`+"\n",
		marginL, marginT-8, svgFont, svgMuted)

	// Gridlines and y tick labels (hairline, recessive; baseline darker).
	for v := 0; v <= yMax; v += tick {
		yy := y(float64(v))
		color, sw := svgGrid, 1.0
		if v == 0 {
			color = svgBaseline
		}
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.0f"/>`+"\n",
			marginL, yy, marginL+plotW, yy, color, sw)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="end">%d</text>`+"\n",
			marginL-6, yy+4, svgFont, svgMuted, v)
	}

	// Bars: stacked segments bottom-up with a 2px surface gap between
	// touching segments (1px shaved off each side of an interior boundary);
	// the topmost drawn segment gets the 4px-radius rounded data-end.
	for i, bar := range bars {
		x := marginL + 14 + float64(i)*step
		segs := segments(bar.Stack)
		// Pixel boundaries of the cumulative stack.
		type drawn struct {
			si       int
			y0, y1   float64 // top, bottom (y0 < y1)
			interior bool    // has a drawn segment above it
		}
		var ds []drawn
		cum := 0.0
		for si, seg := range segs {
			if seg.value <= 0 {
				continue
			}
			lo, hi := y(cum+seg.value), y(cum)
			cum += seg.value
			if hi-lo < 1.2 { // too thin to draw; value still advances the stack
				continue
			}
			ds = append(ds, drawn{si: si, y0: lo, y1: hi})
		}
		for di := range ds {
			if di+1 < len(ds) {
				ds[di].interior = true
			}
		}
		for di, d := range ds {
			top, bot := d.y0, d.y1
			if di > 0 {
				bot -= 1 // gap below: this segment's bottom edge
			}
			if d.interior {
				top += 1 // gap above
			}
			seg := segs[d.si]
			fmt.Fprintf(b, `<path d="%s" fill="%s">`, barPath(x, top, barW, bot-top, !d.interior), svgSeries[d.si])
			fmt.Fprintf(b, `<title>%s: %s %.2f</title></path>`+"\n", xmlEscape(bar.Label), seg.name, seg.value)
		}
		// Measured speedup marker: an ink tick across the bar.
		if s := bar.Stack.ActualSpeedup; s > 0 {
			yy := y(s)
			fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2">`,
				x-4, yy, x+barW+4, yy, svgInk)
			fmt.Fprintf(b, `<title>%s: measured speedup %.2f</title></line>`+"\n", xmlEscape(bar.Label), s)
		}
		// Benchmark label, rotated so long name_suite identifiers fit.
		lx, ly := x+barW/2, marginT+plotH+14
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s" text-anchor="end" transform="rotate(-40 %.1f %.1f)">%s</text>`+"\n",
			lx, ly, svgFont, svgInk2, lx, ly, xmlEscape(bar.Label))
	}

	// Legend: one swatch per component (fixed order) plus the marker key.
	lx := marginL + plotW + 24
	ly := marginT + 4
	for si, seg := range segments(core.Stack{N: 1, Tp: 1}) {
		yy := ly + float64(si)*20
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="12" height="12" rx="2" fill="%s"/>`+"\n", lx, yy, svgSeries[si])
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">%s</text>`+"\n",
			lx+18, yy+10, svgFont, svgInk2, seg.name)
	}
	yy := ly + float64(len(svgSeries))*20
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
		lx, yy+6, lx+12, yy+6, svgInk)
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family='%s' font-size="11" fill="%s">measured speedup</text>`+"\n",
		lx+18, yy+10, svgFont, svgInk2)

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// barPath returns a rect path for one segment; the topmost segment of a
// stack gets 4px rounded top corners (square at every interior boundary and
// at the baseline).
func barPath(x, y, w, h float64, roundTop bool) string {
	r := 4.0
	if !roundTop || h < r {
		return fmt.Sprintf("M%.1f %.1fh%.1fv%.1fh-%.1fz", x, y, w, h, w)
	}
	return fmt.Sprintf("M%.1f %.1fv%.1fh%.1fv-%.1fa%.0f %.0f 0 0 0 -%.0f -%.0fh-%.1fa%.0f %.0f 0 0 0 -%.0f %.0fz",
		x, y+r, h-r, w, h-r, r, r, r, r, w-2*r, r, r, r, r)
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
