package stack

import (
	"bytes"
	"encoding/xml"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureBars is a hand-built pair of stacks exercising every component,
// including a net-positive LLC balance (beta) and an empty component
// (alpha's yield-dominant profile); values are in cycles.
func fixtureBars() []Bar {
	return []Bar{
		{Label: "alpha_suite", Stack: core.Stack{
			N: 8, Tp: 1000, ActualSpeedup: 5.1,
			Components: core.Components{
				NegLLC: 400, PosLLC: 150, NegMem: 800,
				Spin: 350, Yield: 600, Imbalance: 120,
			},
		}},
		{Label: "beta_suite", Stack: core.Stack{
			N: 16, Tp: 2000, ActualSpeedup: 11.7,
			Components: core.Components{
				NegLLC: 100, PosLLC: 600, NegMem: 1800,
				Yield: 2400, Imbalance: 900,
			},
		}},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/stack -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output changed; got:\n%s\nwant:\n%s\n(re-bless with -update if intentional)", name, got, want)
	}
}

func TestEncodeGolden(t *testing.T) {
	for _, f := range []Format{FormatJSON, FormatCSV, FormatSVG, FormatText} {
		t.Run(string(f), func(t *testing.T) {
			var b bytes.Buffer
			if err := Encode(&b, f, fixtureBars()); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "report."+string(f)+".golden", b.Bytes())
		})
	}
}

// svgOf is the Bars.SVG document for the bars.
func svgOf(t *testing.T, bars []Bar) string {
	t.Helper()
	var b strings.Builder
	if err := Bars(bars).SVG(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSVGIsWellFormedXML(t *testing.T) {
	doc := svgOf(t, fixtureBars())
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
	for _, want := range []string{"measured speedup", "base speedup", "imbalance", "alpha_suite", "beta_suite"} {
		if !strings.Contains(doc, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	doc := svgOf(t, []Bar{{Label: `x<&>"y`, Stack: core.Stack{N: 2, Tp: 100}}})
	if strings.Contains(doc, `x<&>`) {
		t.Errorf("unescaped label in SVG")
	}
	if !strings.Contains(doc, "x&lt;&amp;&gt;&quot;y") {
		t.Errorf("escaped label missing from SVG")
	}
}

func TestRowDerivations(t *testing.T) {
	rows := Bars(fixtureBars()).JSON().([]ReportRow)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	alpha := rows[0]
	if alpha.Benchmark != "alpha_suite" || alpha.Threads != 8 || alpha.TpCycles != 1000 {
		t.Errorf("alpha identity wrong: %+v", alpha)
	}
	// NegLLC 400 vs PosLLC 150 -> net 250 cycles = 0.25 speedup units.
	if alpha.Components.NetLLC != 0.25 {
		t.Errorf("alpha net LLC = %v, want 0.25", alpha.Components.NetLLC)
	}
	// beta's positive interference exceeds the negative: net clamps to 0.
	if rows[1].Components.NetLLC != 0 {
		t.Errorf("beta net LLC = %v, want 0", rows[1].Components.NetLLC)
	}
	if d := alpha.Estimated - (alpha.Base + alpha.Components.PosLLC); math.Abs(d) > 1e-9 {
		t.Errorf("estimated %v != base %v + posLLC %v",
			alpha.Estimated, alpha.Base, alpha.Components.PosLLC)
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"text": FormatText, "TXT": FormatText, " json ": FormatJSON,
		"csv": FormatCSV, "SVG": FormatSVG,
		"ndjson": FormatNDJSON, "jsonl": FormatNDJSON,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "xml", "yaml"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Errorf("ParseFormat(%q) succeeded", bad)
		}
	}
}

func TestNegotiateFormat(t *testing.T) {
	cases := []struct {
		query, accept string
		want          Format
		wantErr       bool
	}{
		{"csv", "application/json", FormatCSV, false}, // query wins
		{"", "application/json", FormatJSON, false},
		{"", "text/csv;q=0.9, application/json", FormatCSV, false}, // first recognized
		{"", "image/svg+xml", FormatSVG, false},
		{"", "text/html, */*", FormatJSON, false}, // browser default falls through
		{"", "", FormatJSON, false},
		{"", " Text/Plain ; q=1 ,", FormatText, false},      // case, spaces and parameters ignored
		{"", ",,application/x-ndjson", FormatNDJSON, false}, // empty entries skipped
		{"bogus", "", "", true},
	}
	for _, c := range cases {
		got, err := NegotiateFormat(c.query, c.accept, FormatJSON)
		if (err != nil) != c.wantErr || (err == nil && got != c.want) {
			t.Errorf("NegotiateFormat(%q, %q) = %v, %v; want %v (err=%v)",
				c.query, c.accept, got, err, c.want, c.wantErr)
		}
	}
}

func TestContentTypes(t *testing.T) {
	for f, want := range map[Format]string{
		FormatJSON: "application/json",
		FormatCSV:  "text/csv",
		FormatSVG:  "image/svg+xml",
		FormatText: "text/plain",
	} {
		if ct := f.ContentType(); !strings.HasPrefix(ct, want) {
			t.Errorf("%s content type = %q, want prefix %q", f, ct, want)
		}
	}
}
