// Package stack renders speedup stacks and derives the paper's
// presentation artifacts from them: ASCII stacked bars (Figure 5), the
// benchmark classification tree (Figure 6), and interference-component
// breakdowns (Figures 8 and 9).
package stack

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Component names follow the paper's Figure 5/6 vocabulary.
const (
	CompCache     = "cache"
	CompMemory    = "memory"
	CompSpinning  = "spinning"
	CompYielding  = "yielding"
	CompImbalance = "imbalance"
)

// NegligibleThreshold is the speedup-units floor below which a component is
// not considered a scaling delimiter (used by the Figure 6 classification).
const NegligibleThreshold = 0.30

// components is the stack's vocabulary, in the paper's Figure 5 drawing
// order (base speedup at the bottom/left, then positive LLC interference,
// then the delimiters). Every renderer and the classification read it, so a
// new component is one row here plus its value in units. The index is the
// component's svgSeries colour slot.
var components = [...]struct {
	key    string // classification name (Comp*), "" when not a delimiter
	name   string // chart legend and tooltip name
	legend string // ASCII legend label
	glyph  byte   // ASCII bar block
}{
	{"", "base speedup", "base speedup", '#'},
	{"", "positive LLC interference", "positive LLC", '+'},
	{CompCache, "net negative LLC interference", "net negative LLC", '.'},
	{CompMemory, "negative memory interference", "memory", 'm'},
	{CompSpinning, "spinning", "spinning", 's'},
	{CompYielding, "yielding", "yielding", 'y'},
	{CompImbalance, "imbalance", "imbalance", 'i'},
}

// units returns a stack's components in speedup units, in components order;
// they sum to N. The cache component is the *net* negative LLC interference,
// matching how Figure 6 ranks delimiters.
func units(s core.Stack) [len(components)]float64 {
	tp := float64(s.Tp)
	c := s.Components
	return [...]float64{max(s.Base(), 0), c.PosLLC / tp, max(c.Net(), 0) / tp,
		c.NegMem / tp, c.Spin / tp, c.Yield / tp, c.Imbalance / tp}
}

// Named returns the classification components of a stack in speedup units,
// keyed by the Comp* names.
func Named(s core.Stack) map[string]float64 {
	named := make(map[string]float64, len(components))
	for i, v := range units(s) {
		if key := components[i].key; key != "" {
			named[key] = v
		}
	}
	return named
}

// Delimiter is one classification component of a stack and its cost in
// speedup units.
type Delimiter struct {
	Name  string
	Value float64
}

// Ranked returns the non-negligible classification components of a stack,
// largest first, ties by name.
func Ranked(s core.Stack) []Delimiter {
	var list []Delimiter
	for i, v := range units(s) {
		if key := components[i].key; key != "" && v >= NegligibleThreshold {
			list = append(list, Delimiter{key, v})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Value != list[j].Value {
			return list[i].Value > list[j].Value
		}
		return list[i].Name < list[j].Name
	})
	return list
}

// TopComponents returns the names of the up-to-k largest non-negligible
// components of a stack, largest first.
func TopComponents(s core.Stack, k int) []string {
	list := Ranked(s)
	if len(list) > k {
		list = list[:k]
	}
	out := make([]string, len(list))
	for i, d := range list {
		out[i] = d.Name
	}
	return out
}

// ScalingClass is the Figure 6 grouping.
type ScalingClass string

// Scaling classes per the paper: good >= 10x, poor < 5x, else moderate
// (for 16 threads).
const (
	ClassGood     ScalingClass = "good"
	ClassModerate ScalingClass = "moderate"
	ClassPoor     ScalingClass = "poor"
)

// Classify buckets a 16-thread speedup into the paper's classes.
func Classify(speedup float64) ScalingClass {
	switch {
	case speedup >= 10:
		return ClassGood
	case speedup < 5:
		return ClassPoor
	default:
		return ClassModerate
	}
}

// Bar is one rendered speedup stack.
type Bar struct {
	Label string
	Stack core.Stack
}

// Render draws a set of speedup stacks as horizontal ASCII bars, one block
// per component, in components order.
func Render(bars []Bar, width int) string {
	if width <= 0 {
		width = 64
	}
	return string(appendRender(make([]byte, 0, len(bars)*(width+64)+len(legend)), bars, width))
}

// appendRender appends Render's bytes, at a positive width, to b.
func appendRender(b []byte, bars []Bar, width int) []byte {
	for _, bar := range bars {
		b = append(renderOne(b, bar, width), '\n')
	}
	return append(b, legend...)
}

// renderOne appends one bar's line. A segment's width is clamped to the
// room left, so a stack whose units are not finite (Tp = 0) still draws
// exactly width cells.
func renderOne(b []byte, bar Bar, width int) []byte {
	s := bar.Stack
	b = padTo(append(b, bar.Label...), len(b), -28)
	b = append(b, " N="...)
	b = padTo(strconv.AppendInt(b, int64(s.N), 10), len(b), -3)
	b = append(b, " est="...)
	b = padTo(appendFixed(b, s.Estimated(), 2), len(b), 5)
	if s.ActualSpeedup > 0 {
		b = append(b, " act="...)
		b = padTo(appendFixed(b, s.ActualSpeedup, 2), len(b), 5)
	}
	b = append(b, " |"...)
	perUnit := float64(width) / float64(s.N)
	total := 0
	for i, v := range units(s) {
		n := min(max(int(v*perUnit+0.5), 0), width-total)
		for range n {
			b = append(b, components[i].glyph)
		}
		total += n
	}
	for ; total < width; total++ {
		b = append(b, ' ')
	}
	return append(b, '|')
}

var legend = func() string {
	keys := make([]string, len(components))
	for i, c := range components {
		keys[i] = string(c.glyph) + "=" + c.legend
	}
	return "legend: " + strings.Join(keys, "  ") + "\n"
}()

// tableHeader is Table's first line, aligned to its rows.
const tableHeader = "benchmark                        N     est  actual  posLLC  netLLC  memory    spin   yield   imbal\n"

// Table renders a numeric component table for a set of stacks, one row per
// bar, in speedup units.
func Table(bars []Bar) string {
	return string(appendTable(make([]byte, 0, len(tableHeader)*(len(bars)+1)), bars))
}

// appendTable appends Table's bytes to b.
func appendTable(b []byte, bars []Bar) []byte {
	b = append(b, tableHeader...)
	for _, bar := range bars {
		s := bar.Stack
		tp := float64(s.Tp)
		b = append(padTo(append(b, bar.Label...), len(b), -28), ' ')
		b = padTo(strconv.AppendInt(b, int64(s.N), 10), len(b), 5)
		for _, v := range [...]float64{s.Estimated(), s.ActualSpeedup, s.Components.PosLLC / tp,
			s.Components.Net() / tp, s.Components.NegMem / tp, s.Components.Spin / tp,
			s.Components.Yield / tp, s.Components.Imbalance / tp} {
			b = append(b, ' ')
			b = padTo(appendFixed(b, v, 2), len(b), 7)
		}
		b = append(b, '\n')
	}
	return b
}
