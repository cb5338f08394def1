package stack

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// FuzzAppendFixed holds appendFixed to strconv's 'f' format, its reference,
// at every precision the renderers use and one past pow10.
func FuzzAppendFixed(f *testing.F) {
	// Exact binary ties (0.125, 0.375, 2.5, 3.5) round half to even;
	// 0.05 and 9.95 scale onto a half-integer that is no tie.
	for _, v := range []float64{0.125, 0.375, 2.5, 3.5, 0.05, 9.95, math.Copysign(0, -1), -0.004, 1e-7,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 0.5, 1.005, 123456.789} {
		f.Add(v)
	}
	for _, p := range pow10 {
		edge := (1 << 52) / p
		f.Add(edge)
		f.Add(math.Nextafter(edge, 0))
		f.Add(math.Nextafter(edge, math.Inf(1)))
		f.Add(-edge)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for prec := 0; prec <= len(pow10); prec++ {
			want := strconv.FormatFloat(v, 'f', prec, 64)
			if got := string(appendFixed([]byte("x"), v, prec)); got != "x"+want {
				t.Fatalf("appendFixed(%v (%#x), %d) = %q, want %q", v, math.Float64bits(v), prec, got[1:], want)
			}
		}
	})
}

// FuzzIndentJSON holds indentJSON to json.Indent, its reference, over
// json.Marshal's output for any JSON value.
func FuzzIndentJSON(f *testing.F) {
	for _, s := range []string{
		`{"a":"q\"uote","b":"back\\slash\\","c":"<>&","d":"\\\""}`,
		`{}`, `[]`, `[{},[],{"x":[]}]`, `""`, `0`, `null`, `"tail\\"`,
		strings.Repeat("[", 40) + `1,-2.5e-7,true` + strings.Repeat("]", 40),
		`{"k":{"k":{"k":{"k":[1,{"k":"v"},[[]]]}}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := indentJSON([]byte("x"), compact); string(got) != "x"+want.String() {
			t.Fatalf("indentJSON(%s) =\n%s\nwant\n%s", compact, got[1:], want.Bytes())
		}
	})
}

// TestPadTo pins padTo to fmt's %*s and %-*s, runes not bytes.
func TestPadTo(t *testing.T) {
	for _, tc := range []struct {
		s     string
		width int
		want  string
	}{
		{"ab", 5, "   ab"}, {"ab", -5, "ab   "}, {"abcdef", 3, "abcdef"}, {"abc", -3, "abc"},
		{"σκ", 4, "  σκ"}, {"σκ", -4, "σκ  "}, {"", 2, "  "},
	} {
		if got := string(padTo(append([]byte("x"), tc.s...), 1, tc.width)); got != "x"+tc.want {
			t.Errorf("padTo(%q, %d) = %q, want %q", tc.s, tc.width, got[1:], tc.want)
		}
	}
}

// FuzzWriteCSV holds WriteCSV to encoding/csv's Writer, its reference. The
// input is a document: records split at \x1e, fields at \x1f, the first
// record the header. The seeds hold every field the quoting rule decides
// on, and a seeded run of records drawn from those pieces.
func FuzzWriteCSV(f *testing.F) {
	pieces := []string{"", "a", "label", `"`, `""`, ",", "\r", "\n", "\r\n", `\.`, `\\.`, `.\`,
		" ", " lead", "trail ", "\tx", "\u00a0x", "\u3000", "\xff", "\xc2", "\xc2\xa0", "0.1234", "é"}
	for _, p := range pieces {
		f.Add(p)
		f.Add("h\x1fh2\x1e" + p + "\x1f" + p + "x")
	}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		var doc strings.Builder
		for r := range 1 + rng.Intn(4) {
			if r > 0 {
				doc.WriteByte('\x1e')
			}
			for c := range 1 + rng.Intn(4) {
				if c > 0 {
					doc.WriteByte('\x1f')
				}
				for range rng.Intn(3) {
					doc.WriteString(pieces[rng.Intn(len(pieces))])
				}
			}
		}
		f.Add(doc.String())
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var records [][]string
		for _, rec := range strings.Split(doc, "\x1e") {
			records = append(records, strings.Split(rec, "\x1f"))
		}
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		cw.WriteAll(records)
		var got bytes.Buffer
		if err := WriteCSV(&got, records[0], records[1:]); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("WriteCSV(%q) = %q, want %q", records, got.String(), want.String())
		}
	})
}
