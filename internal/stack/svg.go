package stack

import (
	"io"
	"strconv"
	"strings"
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

// svgSeries is the fixed categorical assignment: components[i] always wears
// slot i, independent of which components a particular stack exhibits (and
// a curve chart's i-th series wears slot i).
var svgSeries = [len(components)]string{
	"#2a78d6", // base speedup
	"#eb6834", // positive LLC interference
	"#1baf7a", // net negative LLC interference
	"#eda100", // negative memory interference
	"#e87ba4", // spinning
	"#008300", // yielding
	"#4a3aa7", // imbalance
}

// canvas is the scaffold every chart draws on: a pooled body (encode.go)
// holding the whole document, plus the frame, the two text styles, the
// hairline, the grid row and the legend column right of the plot area. A
// renderer adds only its marks, through the chained appenders raw (bytes
// as given), esc (XML-escaped text), num (a 1-decimal coordinate), fixed
// and uint, and finish writes the document in one Write and releases the
// body.
type canvas struct {
	b           *body
	left, plotW float64 // the plot area's left edge and width
}

// svgTop is the plot area's top edge: title above, axis caption just over it.
const svgTop = 48.0

// newCanvas opens a width × height document: surface, title, y-axis caption.
func newCanvas(left, plotW, width, height float64, aria, title, caption string) *canvas {
	c := &canvas{b: newBody(), left: left, plotW: plotW}
	c.raw(`<svg xmlns="http://www.w3.org/2000/svg" width="`).fixed(width, 0).raw(`" height="`).fixed(height, 0).
		raw(`" viewBox="0 0 `).fixed(width, 0).raw(" ").fixed(height, 0).raw(`" role="img" aria-label="`).esc(aria).raw("\">\n")
	c.raw(`<rect width="`).fixed(width, 0).raw(`" height="`).fixed(height, 0).raw(`" fill="` + svgSurface + "\"/>\n")
	c.raw(`<text x="`).num(left).raw(`" y="24" font-family='` + svgFont + `' font-size="14" font-weight="600" fill="` + svgInk + `">`).
		esc(title).raw("</text>\n")
	c.text(left, svgTop-8, svgMuted, "", caption)
	return c
}

func (c *canvas) raw(s string) *canvas { *c.b = append(*c.b, s...); return c }

func (c *canvas) esc(s string) *canvas { return c.raw(xmlEscaper.Replace(s)) }

func (c *canvas) num(v float64) *canvas { return c.fixed(v, 1) }

func (c *canvas) fixed(v float64, prec int) *canvas { *c.b = appendFixed(*c.b, v, prec); return c }

func (c *canvas) uint(n uint64) *canvas { *c.b = strconv.AppendUint(*c.b, n, 10); return c }

// The text-anchor attribute, for text's attrs.
const (
	anchorStart  = ` text-anchor="start"`
	anchorMiddle = ` text-anchor="middle"`
	anchorEnd    = ` text-anchor="end"`
)

// text writes an 11px label, content escaped, with attrs appended to its
// attributes. textOpen and textClose are its halves, for a label whose
// attributes carry numbers.
func (c *canvas) text(x, y float64, fill, attrs, content string) {
	c.textOpen(x, y, fill).raw(attrs).textClose(content)
}

func (c *canvas) textOpen(x, y float64, fill string) *canvas {
	return c.raw(`<text x="`).num(x).raw(`" y="`).num(y).raw(`" font-family='` + svgFont + `' font-size="11" fill="`).raw(fill).raw(`"`)
}

func (c *canvas) textClose(content string) { c.raw(">").esc(content).raw("</text>\n") }

// line writes a 1px line with attrs appended to its attributes. lineOpen
// writes a line up to its stroke, for one of another width.
func (c *canvas) line(x1, y1, x2, y2 float64, stroke, attrs string) {
	c.lineOpen(x1, y1, x2, y2, stroke).raw(` stroke-width="1"`).raw(attrs).raw("/>\n")
}

func (c *canvas) lineOpen(x1, y1, x2, y2 float64, stroke string) *canvas {
	return c.raw(`<line x1="`).num(x1).raw(`" y1="`).num(y1).raw(`" x2="`).num(x2).raw(`" y2="`).num(y2).
		raw(`" stroke="`).raw(stroke).raw(`"`)
}

// gridRow writes the gridline at y, darker for the baseline, and its tick label.
func (c *canvas) gridRow(y float64, baseline bool, label string) {
	color := svgGrid
	if baseline {
		color = svgBaseline
	}
	c.line(c.left, y, c.left+c.plotW, y, color, "")
	c.text(c.left-6, y+4, svgMuted, anchorEnd, label)
}

// legendRow returns the top-left corner of the legend's i-th row.
func (c *canvas) legendRow(i int) (x, y float64) {
	return c.left + c.plotW + 24, svgTop + 4 + float64(i)*20
}

// swatch writes the legend's i-th row for a component: colour and name.
func (c *canvas) swatch(i, component int) {
	x, y := c.legendRow(i)
	c.raw(`<rect x="`).num(x).raw(`" y="`).num(y).raw(`" width="12" height="12" rx="2" fill="`).raw(svgSeries[component]).raw("\"/>\n")
	c.text(x+18, y+10, svgInk2, "", components[component].name)
}

// finish closes the document, writes it to w in one Write and releases the
// body; c draws nothing afterwards.
func (c *canvas) finish(w io.Writer) error { return c.raw("</svg>\n").b.flush(w) }

// SVG writes the bars to w as a standalone SVG document.
func (bars Bars) SVG(w io.Writer) error {
	const (
		marginL = 46.0  // room for y tick labels
		plotH   = 280.0 // plot area height
		barW    = 24.0  // bar thickness (capped per mark spec)
		step    = 46.0  // x distance between bar centers
		labelH  = 118.0 // rotated benchmark labels under the baseline
		legendW = 210.0
	)
	plotW := float64(max(len(bars), 1))*step + 18

	// y scale: 0..yMax speedup units, yMax = the tallest stack's N.
	yMax := 1
	for _, bar := range bars {
		yMax = max(yMax, bar.Stack.N)
	}
	tick := 1
	for yMax/tick > 8 {
		tick *= 2
	}
	y := func(v float64) float64 { return svgTop + plotH - v/float64(yMax)*plotH }

	c := newCanvas(marginL, plotW, marginL+plotW+legendW, svgTop+plotH+labelH,
		"Speedup stacks", "Speedup stacks", "speedup")
	for v := 0; v <= yMax; v += tick {
		c.gridRow(y(float64(v)), v == 0, strconv.Itoa(v))
	}

	// Bars: stacked segments bottom-up with a 2px surface gap between
	// touching segments (1px shaved off each side of an interior boundary);
	// the topmost drawn segment gets the 4px-radius rounded data-end.
	for i, bar := range bars {
		x := marginL + 14 + float64(i)*step
		vals := units(bar.Stack)
		// Pixel boundaries of the cumulative stack.
		type drawn struct {
			si     int
			y0, y1 float64 // top, bottom (y0 < y1)
		}
		var ds []drawn
		cum := 0.0
		for si, v := range vals {
			if v <= 0 {
				continue
			}
			lo, hi := y(cum+v), y(cum)
			cum += v
			if hi-lo < 1.2 { // too thin to draw; value still advances the stack
				continue
			}
			ds = append(ds, drawn{si: si, y0: lo, y1: hi})
		}
		for di, d := range ds {
			top, bot := d.y0, d.y1
			if di > 0 {
				bot -= 1 // gap below: this segment's bottom edge
			}
			interior := di+1 < len(ds) // has a drawn segment above it
			if interior {
				top += 1 // gap above
			}
			c.raw(`<path d="`).barPath(x, top, barW, bot-top, !interior).raw(`" fill="`).raw(svgSeries[d.si]).raw(`"><title>`).
				esc(bar.Label).raw(": ").raw(components[d.si].name).raw(" ").fixed(vals[d.si], 2).raw("</title></path>\n")
		}
		// Measured speedup marker: an ink tick across the bar.
		if s := bar.Stack.ActualSpeedup; s > 0 {
			yy := y(s)
			c.lineOpen(x-4, yy, x+barW+4, yy, svgInk).raw(` stroke-width="2"><title>`).
				esc(bar.Label).raw(": measured speedup ").fixed(s, 2).raw("</title></line>\n")
		}
		// Benchmark label, rotated so long name_suite identifiers fit.
		lx, ly := x+barW/2, svgTop+plotH+14
		c.textOpen(lx, ly, svgInk2).raw(anchorEnd + ` transform="rotate(-40 `).num(lx).raw(" ").num(ly).raw(`)"`).
			textClose(bar.Label)
	}

	// Legend: one swatch per component (fixed order) plus the marker key.
	for si := range components {
		c.swatch(si, si)
	}
	lx, ly := c.legendRow(len(components))
	c.lineOpen(lx, ly+6, lx+12, ly+6, svgInk).raw(` stroke-width="2"/>` + "\n")
	c.text(lx+18, ly+10, svgInk2, "", "measured speedup")
	return c.finish(w)
}

// barPath writes a rect path for one segment; the topmost segment of a
// stack gets 4px rounded top corners (square at every interior boundary and
// at the baseline).
func (c *canvas) barPath(x, y, w, h float64, roundTop bool) *canvas {
	const r = 4.0
	if !roundTop || h < r {
		return c.raw("M").num(x).raw(" ").num(y).raw("h").num(w).raw("v").num(h).raw("h-").num(w).raw("z")
	}
	return c.raw("M").num(x).raw(" ").num(y + r).raw("v").num(h - r).raw("h").num(w).raw("v-").num(h - r).
		raw("a4 4 0 0 0 -4 -4h-").num(w - 2*r).raw("a4 4 0 0 0 -4 4z")
}

var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
