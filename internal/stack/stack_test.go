package stack

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

func sample() core.Stack {
	return core.Stack{
		N:  16,
		Tp: 1000,
		Components: core.Components{
			NegLLC: 1500, PosLLC: 500, NegMem: 1000,
			Spin: 2000, Yield: 4000, Imbalance: 100,
		},
		ActualSpeedup: 7.2,
	}
}

func TestNamedUsesNetCache(t *testing.T) {
	n := Named(sample())
	if n[CompCache] != 1.0 { // (1500-500)/1000
		t.Fatalf("cache = %v", n[CompCache])
	}
	if n[CompMemory] != 1.0 || n[CompSpinning] != 2.0 || n[CompYielding] != 4.0 {
		t.Fatalf("components wrong: %v", n)
	}
	// Net below zero clamps to zero.
	s := sample()
	s.Components.PosLLC = 5000
	if Named(s)[CompCache] != 0 {
		t.Fatal("negative net not clamped")
	}
}

func TestTopComponentsOrderAndThreshold(t *testing.T) {
	got := TopComponents(sample(), 3)
	want := []string{CompYielding, CompSpinning, CompCache}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	// cache and memory tie at 1.0; tie-break is alphabetical (cache).
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Components below the threshold disappear.
	s := sample()
	s.Components = core.Components{Yield: 4000}
	if got := TopComponents(s, 3); len(got) != 1 || got[0] != CompYielding {
		t.Fatalf("got %v", got)
	}
	// k truncates.
	if got := TopComponents(sample(), 1); len(got) != 1 {
		t.Fatalf("k=1 returned %v", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		s    float64
		want ScalingClass
	}{
		{15.9, ClassGood}, {10.0, ClassGood}, {9.99, ClassModerate},
		{5.0, ClassModerate}, {4.99, ClassPoor}, {1.2, ClassPoor},
	}
	for _, c := range cases {
		if got := Classify(c.s); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestRenderContainsSegmentsAndLegend(t *testing.T) {
	out := Render([]Bar{{Label: "bench", Stack: sample()}}, 64)
	if !strings.Contains(out, "bench") {
		t.Fatal("label missing")
	}
	if !strings.Contains(out, "est=") || !strings.Contains(out, "act=") {
		t.Fatal("speedup annotations missing")
	}
	if !strings.Contains(out, "legend:") {
		t.Fatal("legend missing")
	}
	// Bar body must be width-bounded between the pipes.
	lines := strings.Split(out, "\n")
	bar := lines[0]
	inner := bar[strings.Index(bar, "|")+1 : strings.LastIndex(bar, "|")]
	if len(inner) != 64 {
		t.Fatalf("bar width = %d, want 64", len(inner))
	}
}

func TestRenderSegmentsSumToN(t *testing.T) {
	s := sample()
	total := 0.0
	for _, v := range units(s) {
		total += v
	}
	// base + pos + net + mem + spin + yield + imbalance = N (up to the
	// clamping of negative values, absent here).
	if total < 15.99 || total > 16.01 {
		t.Fatalf("units sum to %v, want 16", total)
	}
}

func TestTableHasAllColumns(t *testing.T) {
	out := Table([]Bar{{Label: "x", Stack: sample()}})
	for _, col := range []string{"est", "actual", "posLLC", "netLLC", "memory", "spin", "yield", "imbal"} {
		if !strings.Contains(out, col) {
			t.Fatalf("column %q missing in %q", col, out)
		}
	}
	if !strings.Contains(out, "7.20") {
		t.Fatal("actual speedup missing from table body")
	}
}

func TestRenderDefaultWidth(t *testing.T) {
	out := Render([]Bar{{Label: "b", Stack: sample()}}, 0)
	if out == "" {
		t.Fatal("empty render")
	}
}

// legendOf maps each legend label of an SVG chart to its swatch's fill.
func legendOf(t *testing.T, svg string) map[string]string {
	t.Helper()
	swatch := regexp.MustCompile(`<rect x="[^"]*" y="[^"]*" width="12" height="12" rx="2" fill="([^"]*)"/>\n<text [^>]*>([^<]*)</text>`)
	out := map[string]string{}
	for _, m := range swatch.FindAllStringSubmatch(svg, -1) {
		out[m[2]] = m[1]
	}
	return out
}

// TestComponentTableDrivesEveryRenderer pins the components table as the one
// vocabulary: both charts' legends, the ASCII legend, the classification
// names and the ranking are all read off it.
func TestComponentTableDrivesEveryRenderer(t *testing.T) {
	var agg, tl strings.Builder
	if err := (Bars{{Label: "x", Stack: sample()}}).SVG(&agg); err != nil {
		t.Fatal(err)
	}
	ts := TimeSeries{Label: "x", Stack: core.Stack{N: 4}, TotalOps: 100, Intervals: []Interval{{
		EndOps: 100, EndCycle: 1000,
		Components: core.IntComponents{NegLLC: 300, PosLLC: 100, NegMem: 200, Spin: 400, Yield: 500, Imbalance: 50},
	}}}
	if err := ts.SVG(&tl); err != nil {
		t.Fatal(err)
	}
	aggLegend, tlLegend := legendOf(t, agg.String()), legendOf(t, tl.String())
	delimiters := 0
	for i, c := range components {
		if aggLegend[c.name] != svgSeries[i] {
			t.Errorf("aggregate legend: %q wears %q, want slot %d (%s)", c.name, aggLegend[c.name], i, svgSeries[i])
		}
		if c.key == "" {
			if _, ok := tlLegend[c.name]; ok {
				t.Errorf("timeline legend lists %q, which is not a delimiter", c.name)
			}
			continue
		}
		delimiters++
		if tlLegend[c.name] != aggLegend[c.name] {
			t.Errorf("timeline legend: %q wears %q, the aggregate chart %q", c.name, tlLegend[c.name], aggLegend[c.name])
		}
		if !strings.Contains(tl.String(), "): "+c.name+" ") {
			t.Errorf("timeline draws no %q band", c.name)
		}
	}
	if len(aggLegend) != len(components) || len(tlLegend) != delimiters {
		t.Errorf("legends list %d and %d components, want %d and %d", len(aggLegend), len(tlLegend), len(components), delimiters)
	}

	// The ASCII legend names every glyph the bar can emit.
	glyphs := " "
	for _, c := range components {
		glyphs += string(c.glyph)
		if !strings.Contains(legend, string(c.glyph)+"="+c.legend) {
			t.Errorf("legend %q does not name %c=%s", legend, c.glyph, c.legend)
		}
	}
	bar := string(renderOne(nil, Bar{Label: "x", Stack: sample()}, 64))
	if body := bar[strings.Index(bar, "|")+1 : strings.LastIndex(bar, "|")]; strings.Trim(body, glyphs) != "" {
		t.Errorf("bar %q uses a glyph outside the table", body)
	}

	// Named's keys are exactly the Comp* constants.
	named := Named(sample())
	for _, key := range []string{CompCache, CompMemory, CompSpinning, CompYielding, CompImbalance} {
		if _, ok := named[key]; !ok {
			t.Errorf("Named lacks %q", key)
		}
	}
	if len(named) != 5 {
		t.Errorf("Named = %v, want the five Comp* keys", named)
	}

	// Ranked is the ranking TopComponents names: thresholded, largest
	// first, ties by name.
	for _, tc := range []struct {
		name string
		c    core.Components
		want []string
	}{
		{"sample", sample().Components, []string{CompYielding, CompSpinning, CompCache, CompMemory}}, // imbalance 0.1 is negligible
		{"all equal", core.Components{NegLLC: 1000, NegMem: 1000, Spin: 1000, Yield: 1000, Imbalance: 1000},
			[]string{CompCache, CompImbalance, CompMemory, CompSpinning, CompYielding}},
		{"at and under the threshold", core.Components{Spin: 300, Yield: 299}, []string{CompSpinning}},
		{"nothing", core.Components{}, nil},
	} {
		s := core.Stack{N: 16, Tp: 1000, Components: tc.c}
		ranked, top := Ranked(s), TopComponents(s, 5)
		if len(ranked) != len(tc.want) || len(top) != len(tc.want) {
			t.Errorf("%s: Ranked = %v, TopComponents = %v, want %v", tc.name, ranked, top, tc.want)
			continue
		}
		for i, d := range ranked {
			if d.Name != tc.want[i] || top[i] != d.Name || d.Value != Named(s)[d.Name] {
				t.Errorf("%s: Ranked = %v, TopComponents = %v, want %v", tc.name, ranked, top, tc.want)
			}
			if i > 0 && (ranked[i-1].Value < d.Value || ranked[i-1].Value == d.Value && ranked[i-1].Name > d.Name) {
				t.Errorf("%s: %v is out of order", tc.name, ranked)
			}
		}
	}
}

// TestZeroCycleStackStaysBounded pins the renderers on a stack with Tp = 0,
// whose units are all NaN: each text bar is exactly width cells, and a
// format that cannot encode NaN fails before writing a byte.
func TestZeroCycleStackStaysBounded(t *testing.T) {
	bars := Bars{{Label: "zero", Stack: core.Stack{N: 2}}, {Label: "none", Stack: core.Stack{}}}
	for _, width := range []int{1, 64, 200} {
		for _, line := range strings.Split(Render(bars, width), "\n")[:len(bars)] {
			if body := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]; len(body) != width {
				t.Errorf("width %d: bar %q is %d cells", width, line, len(body))
			}
		}
	}
	for _, f := range Formats() {
		var b strings.Builder
		err := EncodeDocument(&b, f, bars)
		if b.Len() > 16<<10 {
			t.Errorf("%s: %d bytes", f, b.Len())
		}
		if err != nil && b.Len() != 0 {
			t.Errorf("%s: %v after %d bytes were written", f, err, b.Len())
		}
		if wantErr := f == FormatJSON || f == FormatNDJSON; (err != nil) != wantErr {
			t.Errorf("%s: error %v, want one: %v", f, err, wantErr)
		}
	}
}

// TestFmtOps pins the timeline's op-count axis labels at each side of the
// unit and precision switches: one rounding rule, so a count that rounds
// across a switch labels as the count past it does.
func TestFmtOps(t *testing.T) {
	for n, want := range map[uint64]string{
		999:           "999",
		1_000:         "1.0k",
		1_049:         "1.0k",
		1_050:         "1.1k",
		9_949:         "9.9k",
		9_950:         "10k",
		9_999:         "10k",
		10_000:        "10k",
		10_499:        "10k",
		10_500:        "11k",
		999_499:       "999k",
		999_500:       "1.0M",
		999_999:       "1.0M",
		1_000_000:     "1.0M",
		1_234_567:     "1.2M",
		9_999_999:     "10M",
		10_000_000:    "10M",
		12_500_000:    "13M",
		1_999_999_999: "2000M",
	} {
		if got := fmtOps(n); got != want {
			t.Errorf("fmtOps(%d) = %q, want %q", n, got, want)
		}
	}
}
