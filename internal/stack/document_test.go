package stack_test

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scaling"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// documents are the four Document implementations, one hand-built value
// each (the time series measured on a registry benchmark), by type name.
func documents(t *testing.T) map[string]stack.Document {
	t.Helper()
	bars := stack.Bars{{Label: "alpha_suite", Stack: core.Stack{
		N: 8, Tp: 1000, ActualSpeedup: 5.1,
		Components: core.Components{NegLLC: 400, PosLLC: 150, NegMem: 800, Spin: 350, Yield: 600, Imbalance: 120},
	}}}
	b, _ := workload.ByName("cholesky_splash2")
	advice, err := scaling.Build("alpha_suite", b.Spec,
		[]scaling.Point{{Threads: 1, Speedup: 1}, {Threads: 2, Speedup: 1.9}, {Threads: 4, Speedup: 3.4}, {Threads: 8, Speedup: 5.1}},
		bars[0].Stack)
	if err != nil {
		t.Fatal(err)
	}
	report := whatif.Report{Benchmark: "alpha_suite", Threads: 8, BaselineSpeedup: 5.1, BaselineEstimated: 5.3,
		Predictions: []whatif.Prediction{{Intervention: whatif.HalveLockHold, Summary: "halve the lock hold time",
			Component: "spinning", Mutation: "lock_hold 800 -> 400", PredictedGain: 0.2, PredictedSpeedup: 5.3,
			ActualSpeedup: 5.25, ActualGain: 0.15, Error: 0.0063}},
		Bars: bars}
	return map[string]stack.Document{
		"stack.Bars":       bars,
		"stack.TimeSeries": seriesFor(t, "swaptions_parsec_small", 2, 20000),
		"scaling.Advice":   advice,
		"whatif.Report":    report,
	}
}

// TestDocumentConformance holds the four Document implementations to the
// contract EncodeDocument relies on: CSV records as wide as the header, an
// SVG that parses as XML, a JSON value that survives a marshal round trip,
// a non-empty text report, and every format encoding without error.
func TestDocumentConformance(t *testing.T) {
	docs := documents(t)
	bars, report := docs["stack.Bars"].(stack.Bars), docs["whatif.Report"].(whatif.Report)
	for name, d := range docs {
		if d.Text() == "" {
			t.Errorf("%s: empty text report", name)
		}
		header, records := d.CSV()
		if len(header) == 0 || len(records) == 0 {
			t.Errorf("%s: CSV has %d columns, %d records", name, len(header), len(records))
		}
		for i, rec := range records {
			if len(rec) != len(header) {
				t.Errorf("%s: CSV record %d has %d fields, header %d", name, i, len(rec), len(header))
			}
		}
		var svg bytes.Buffer
		if err := d.SVG(&svg); err != nil {
			t.Errorf("%s: SVG: %v", name, err)
		}
		dec := xml.NewDecoder(&svg)
		for tokens := 0; ; tokens++ {
			if _, err := dec.Token(); err == io.EOF && tokens > 0 {
				break
			} else if err != nil {
				t.Errorf("%s: SVG is not well-formed XML: %v", name, err)
				break
			}
		}
		// Round trip: marshal, unmarshal into a fresh value of the same
		// type, marshal again — the bytes must not move.
		first, err := json.Marshal(d.JSON())
		if err != nil {
			t.Fatalf("%s: JSON: %v", name, err)
		}
		fresh := reflect.New(reflect.TypeOf(d.JSON()))
		if err := json.Unmarshal(first, fresh.Interface()); err != nil {
			t.Fatalf("%s: JSON does not decode into its own type: %v", name, err)
		}
		if second, _ := json.Marshal(fresh.Elem().Interface()); !bytes.Equal(first, second) {
			t.Errorf("%s: JSON changed across a round trip:\n%s\n%s", name, first, second)
		}
		for _, f := range stack.Formats() {
			if err := stack.EncodeDocument(io.Discard, f, d); err != nil {
				t.Errorf("%s: encoding %s: %v", name, f, err)
			}
		}
	}
	// The ndjson form of Bars is one line per bar, each exactly
	// json.Marshal(Row(bar)) plus a newline: fleet merges sweeps on it.
	var nd, want bytes.Buffer
	two := append(bars, bars[0])
	if err := stack.EncodeDocument(&nd, stack.FormatNDJSON, two); err != nil {
		t.Fatal(err)
	}
	for _, bar := range two {
		line, _ := json.Marshal(stack.Row(bar))
		want.Write(append(line, '\n'))
	}
	if !bytes.Equal(nd.Bytes(), want.Bytes()) {
		t.Errorf("Bars ndjson:\n%s\nwant:\n%s", nd.Bytes(), want.Bytes())
	}
	// A what-if report decoded off the wire carries no stacks: its SVG must
	// error, not draw an empty chart.
	report.Bars = nil
	if err := stack.EncodeDocument(io.Discard, stack.FormatSVG, report); err == nil {
		t.Error("SVG of a bar-less what-if report succeeded")
	}
	if err := stack.EncodeDocument(io.Discard, "yaml", bars); err == nil {
		t.Error("unknown format encoded")
	}
}

// writeCounter counts the Write calls a body arrives in.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestEncodeDocumentWritesOnce holds every format of every Document, and
// the many-row ndjson sweep body, to one Write of the whole body: the
// service announces a one-document reply's Content-Length from it.
func TestEncodeDocumentWritesOnce(t *testing.T) {
	docs := documents(t)
	bars := docs["stack.Bars"].(stack.Bars)
	docs["many stack.Bars"] = append(append(stack.Bars{}, bars...), bars[0], bars[0])
	for name, d := range docs {
		for _, f := range stack.Formats() {
			var w writeCounter
			if err := stack.EncodeDocument(&w, f, d); err != nil {
				t.Fatalf("%s: encoding %s: %v", name, f, err)
			}
			if w.writes != 1 || w.bytes == 0 {
				t.Errorf("%s in %s: %d bytes in %d writes, want one", name, f, w.bytes, w.writes)
			}
		}
	}
}
