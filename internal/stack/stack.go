// Package stack renders speedup stacks and derives the paper's
// presentation artifacts from them: ASCII stacked bars (Figure 5), the
// benchmark classification tree (Figure 6), and interference-component
// breakdowns (Figures 8 and 9).
package stack

import (
	"fmt"
	"sort"
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
	var b strings.Builder
	for _, bar := range bars {
		b.WriteString(renderOne(bar, width))
		b.WriteByte('\n')
	}
	b.WriteString(legend)
	return b.String()
}

func renderOne(bar Bar, width int) string {
	s := bar.Stack
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s N=%-3d est=%5.2f", bar.Label, s.N, s.Estimated())
	if s.ActualSpeedup > 0 {
		fmt.Fprintf(&sb, " act=%5.2f", s.ActualSpeedup)
	}
	sb.WriteString(" |")
	perUnit := float64(width) / float64(s.N)
	total := 0
	for i, v := range units(s) {
		n := int(v*perUnit + 0.5)
		if total+n > width {
			n = width - total
		}
		for j := 0; j < n; j++ {
			sb.WriteByte(components[i].glyph)
		}
		total += n
	}
	for total < width {
		sb.WriteByte(' ')
		total++
	}
	sb.WriteString("|")
	return sb.String()
}

var legend = func() string {
	keys := make([]string, len(components))
	for i, c := range components {
		keys[i] = string(c.glyph) + "=" + c.legend
	}
	return "legend: " + strings.Join(keys, "  ") + "\n"
}()

// Table renders a numeric component table for a set of stacks, one row per
// bar, in speedup units.
func Table(bars []Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %5s %7s %7s %7s %7s %7s %7s %7s %7s\n",
		"benchmark", "N", "est", "actual", "posLLC", "netLLC", "memory",
		"spin", "yield", "imbal")
	for _, bar := range bars {
		s := bar.Stack
		tp := float64(s.Tp)
		net := s.Components.Net() / tp
		fmt.Fprintf(&b, "%-28s %5d %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n",
			bar.Label, s.N, s.Estimated(), s.ActualSpeedup,
			s.Components.PosLLC/tp, net, s.Components.NegMem/tp,
			s.Components.Spin/tp, s.Components.Yield/tp,
			s.Components.Imbalance/tp)
	}
	return b.String()
}
