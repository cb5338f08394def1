package stack_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stack"
)

// reference renders d in format f without the encoder's pooled bodies:
// json.Indent of json.Marshal, json.Marshal per ndjson line, encoding/csv,
// and the text as Text returns it. SVG has no second renderer; its
// reference is the document's own SVG, rendered by the caller before any
// other encode (TestEncodeGolden pins the bar chart's bytes).
func reference(t *testing.T, f stack.Format, d stack.Document) []byte {
	t.Helper()
	var b bytes.Buffer
	switch f {
	case stack.FormatText:
		b.WriteString(d.Text())
	case stack.FormatJSON:
		compact, err := json.Marshal(d.JSON())
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&b, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
	case stack.FormatNDJSON:
		lines := []any{d.JSON()}
		if rows, ok := d.JSON().([]stack.ReportRow); ok {
			lines = lines[:0]
			for _, row := range rows {
				lines = append(lines, row)
			}
		}
		for _, v := range lines {
			line, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
	case stack.FormatCSV:
		header, records := d.CSV()
		cw := csv.NewWriter(&b)
		cw.Write(header)
		cw.WriteAll(records)
	case stack.FormatSVG:
		if err := d.SVG(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// encode is EncodeDocument into a fresh buffer.
func encode(t *testing.T, f stack.Format, d stack.Document) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := stack.EncodeDocument(&b, f, d); err != nil {
		t.Fatalf("encoding %s: %v", f, err)
	}
	return b.Bytes()
}

// bigSeries is a time series of n synthetic intervals: at 512 its SVG and
// its JSON each outgrow the encoder pool's 64 KiB retention cap.
func bigSeries(n int) stack.TimeSeries {
	ts := stack.TimeSeries{Label: "big_suite", TotalOps: uint64(n) * 100, EveryOps: 100,
		Stack: core.Stack{N: 4, Tp: uint64(n) * 1000}}
	for i := range n {
		c := core.IntComponents{NegLLC: int64(i % 7 * 50), PosLLC: 20, NegMem: int64(i % 5 * 90),
			Spin: int64(i % 3 * 100), Yield: 40, Imbalance: int64(i % 11 * 10)}
		ts.Intervals = append(ts.Intervals, stack.Interval{Index: i, StartOps: uint64(i) * 100,
			EndOps: uint64(i+1) * 100, StartCycle: uint64(i) * 1000, EndCycle: uint64(i+1) * 1000, Components: c})
		ts.Aggregate.NegLLC += c.NegLLC
		ts.Aggregate.PosLLC += c.PosLLC
		ts.Aggregate.NegMem += c.NegMem
		ts.Aggregate.Spin += c.Spin
		ts.Aggregate.Yield += c.Yield
		ts.Aggregate.Imbalance += c.Imbalance
	}
	return ts
}

// TestEncodeMatchesReference holds every Document in every format to its
// pool-free reference, over three passes in different orders with an
// over-cap document encoded between them: a body reused from the pool
// renders exactly what a fresh one would.
func TestEncodeMatchesReference(t *testing.T) {
	docs := documents(t)
	type job struct {
		name string
		f    stack.Format
	}
	var jobs []job
	want := map[job][]byte{}
	for name, d := range docs {
		for _, f := range stack.Formats() {
			j := job{name, f}
			jobs = append(jobs, j)
			want[j] = reference(t, f, d)
		}
	}
	big := bigSeries(512)
	for pass := range 3 {
		for k, i := range rand.New(rand.NewSource(int64(pass))).Perm(len(jobs)) {
			j := jobs[i]
			if got := encode(t, j.f, docs[j.name]); !bytes.Equal(got, want[j]) {
				t.Errorf("pass %d: %s in %s differs from its reference:\n%s\nwant:\n%s", pass, j.name, j.f, got, want[j])
			}
			if k%7 == 0 {
				encode(t, stack.FormatSVG, big)
				encode(t, stack.FormatJSON, big)
			}
		}
	}
}

// TestEncodeAfterOverCapBody encodes a 512-interval timeline's SVG and
// JSON, each past the pool's retention cap, and after each the small
// documents in every format: their bytes are exactly their own.
func TestEncodeAfterOverCapBody(t *testing.T) {
	docs := documents(t)
	want := map[string][]byte{}
	for name, d := range docs {
		for _, f := range stack.Formats() {
			want[name+"."+string(f)] = reference(t, f, d)
		}
	}
	big := bigSeries(512)
	for _, bigF := range []stack.Format{stack.FormatSVG, stack.FormatJSON} {
		if n := len(encode(t, bigF, big)); n <= 64<<10 {
			t.Fatalf("the 512-interval %s is %d bytes, not past the 64 KiB cap", bigF, n)
		}
		for name, d := range docs {
			for _, f := range stack.Formats() {
				if got := encode(t, f, d); !bytes.Equal(got, want[name+"."+string(f)]) {
					t.Errorf("%s in %s after an over-cap %s body:\n%s", name, f, bigF, got)
				}
			}
		}
	}
}

// TestEncodeAfterFailure refuses a document with a NaN (a zero-cycle
// stack) part way through its rows, which writes nothing, and then encodes
// a good one: its bytes carry nothing of the failed render.
func TestEncodeAfterFailure(t *testing.T) {
	good := documents(t)["stack.Bars"].(stack.Bars)
	failing := append(append(stack.Bars{}, good...), stack.Bar{Label: "zero", Stack: core.Stack{N: 2}})
	for _, f := range []stack.Format{stack.FormatJSON, stack.FormatNDJSON} {
		want := reference(t, f, good)
		for range 3 {
			var b bytes.Buffer
			if err := stack.EncodeDocument(&b, f, failing); err == nil || b.Len() != 0 {
				t.Fatalf("%s: a NaN row encoded with error %v and wrote %d bytes, want an error and none", f, err, b.Len())
			}
			if got := encode(t, f, good); !bytes.Equal(got, want) {
				t.Errorf("%s after a failed encode:\n%s\nwant:\n%s", f, got, want)
			}
		}
	}
}
