package stack

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Format selects a report encoding. The same set of formats is understood by
// the library encoders (Encode), the speedup-stack CLI (-format) and the
// speedupd HTTP service (?format= / Accept negotiation).
type Format string

// The supported report formats.
const (
	// FormatText is the human-oriented ASCII rendering: stacked bars plus
	// the numeric component table.
	FormatText Format = "text"
	// FormatJSON is an indented JSON array of ReportRow objects.
	FormatJSON Format = "json"
	// FormatCSV is one header row plus one record per stack, every
	// component in speedup units.
	FormatCSV Format = "csv"
	// FormatSVG is a standalone SVG document drawing the stacks as
	// vertical stacked bars with a legend and measured-speedup markers.
	FormatSVG Format = "svg"
	// FormatNDJSON is newline-delimited JSON: one compact ReportRow object
	// per line, flushed as results complete — the streaming form of
	// FormatJSON for large batches.
	FormatNDJSON Format = "ndjson"
)

// Formats lists the supported report formats in presentation order.
func Formats() []Format {
	return []Format{FormatText, FormatJSON, FormatNDJSON, FormatCSV, FormatSVG}
}

// ParseFormat resolves a format name ("text", "json", "csv", "svg"; "txt" is
// accepted as an alias) case-insensitively.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text", "txt":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "ndjson", "jsonl":
		return FormatNDJSON, nil
	case "csv":
		return FormatCSV, nil
	case "svg":
		return FormatSVG, nil
	}
	return "", fmt.Errorf("stack: unknown format %q (want one of %v)", s, Formats())
}

// ContentType returns the MIME type a report in this format should be
// served with.
func (f Format) ContentType() string {
	switch f {
	case FormatJSON:
		return "application/json; charset=utf-8"
	case FormatNDJSON:
		return "application/x-ndjson; charset=utf-8"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatSVG:
		return "image/svg+xml"
	default:
		return "text/plain; charset=utf-8"
	}
}

// acceptFormats maps media types of an HTTP Accept header onto formats.
var acceptFormats = map[string]Format{
	"application/json":     FormatJSON,
	"text/json":            FormatJSON,
	"application/x-ndjson": FormatNDJSON,
	"application/jsonl":    FormatNDJSON,
	"text/csv":             FormatCSV,
	"image/svg+xml":        FormatSVG,
	"text/plain":           FormatText,
}

// NegotiateFormat picks the report format for an HTTP request: an explicit
// query value (?format=csv) wins, then the first recognized media type of
// the Accept header, then def. An unknown query value is an error (the
// caller should answer 400); unrecognized Accept entries are skipped, so a
// browser's default Accept header falls through to def.
func NegotiateFormat(query, accept string, def Format) (Format, error) {
	if query != "" {
		return ParseFormat(query)
	}
	for rest := accept; rest != ""; {
		var mt string
		mt, rest, _ = strings.Cut(rest, ",")
		mt, _, _ = strings.Cut(mt, ";")
		if f, ok := acceptFormats[strings.ToLower(strings.TrimSpace(mt))]; ok {
			return f, nil
		}
	}
	return def, nil
}

// ReportComponents are one stack's components in speedup units, named after
// the paper's Figure 5 vocabulary. All values are rounded to 4 decimals.
type ReportComponents struct {
	// PosLLC is positive LLC interference (it raises the speedup).
	PosLLC float64 `json:"pos_llc"`
	// NegLLC is gross negative LLC interference; NetLLC is max(0, neg-pos),
	// the white component of Figure 5.
	NegLLC    float64 `json:"neg_llc"`
	NetLLC    float64 `json:"net_llc"`
	Memory    float64 `json:"memory"`
	Spinning  float64 `json:"spinning"`
	Yielding  float64 `json:"yielding"`
	Imbalance float64 `json:"imbalance"`
}

// ReportRow is the machine-readable form of one speedup stack.
type ReportRow struct {
	Benchmark string `json:"benchmark"`
	Threads   int    `json:"threads"`
	// TpCycles is the multi-threaded execution time in cycles.
	TpCycles uint64 `json:"tp_cycles"`
	// Estimated is Ŝ from the accounting hardware; Actual is the measured
	// Ts/Tp (0 when no sequential reference was run); Base is Formula (5).
	Estimated float64 `json:"estimated_speedup"`
	Actual    float64 `json:"actual_speedup"`
	Base      float64 `json:"base_speedup"`
	// Components are the scaling delimiters in speedup units.
	Components ReportComponents `json:"components"`
}

// round4 keeps report floats stable and readable (4 decimals, matching the
// CSV emitters).
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// Row converts one bar into its report form.
func Row(b Bar) ReportRow {
	s := b.Stack
	tp := float64(s.Tp)
	net := s.Components.Net()
	if net < 0 {
		net = 0
	}
	base := s.Base()
	if base < 0 {
		base = 0
	}
	return ReportRow{
		Benchmark: b.Label,
		Threads:   s.N,
		TpCycles:  s.Tp,
		Estimated: round4(s.Estimated()),
		Actual:    round4(s.ActualSpeedup),
		Base:      round4(base),
		Components: ReportComponents{
			PosLLC:    round4(s.Components.PosLLC / tp),
			NegLLC:    round4(s.Components.NegLLC / tp),
			NetLLC:    round4(net / tp),
			Memory:    round4(s.Components.NegMem / tp),
			Spinning:  round4(s.Components.Spin / tp),
			Yielding:  round4(s.Components.Yield / tp),
			Imbalance: round4(s.Components.Imbalance / tp),
		},
	}
}

// Document is one analysis result in every form a report can take. Each
// analysis answers with one — Bars, TimeSeries, scaling.Advice,
// whatif.Report — and EncodeDocument is the only code that knows the
// formats, so a new analysis is a new Document, never a new encoder.
type Document interface {
	// Text is the human-readable report.
	Text() string
	// JSON is the value whose encoding is the json (indented) and ndjson
	// (compact) body.
	JSON() any
	// CSV is the document as one flat table.
	CSV() (header []string, records [][]string)
	// SVG writes the standalone chart.
	SVG(w io.Writer) error
}

// EncodeDocument writes d to w in the requested format, rendering the whole
// body before its one Write: a body that fails to render (a NaN in JSON)
// leaves w untouched. A []ReportRow document is ndjson one compact row per
// line — each line exactly json.Marshal(row) plus a newline, the contract
// the fleet layer's byte-level sweep merging relies on; every other JSON
// value is one line. Every format renders into a pooled body (newBody), so
// once the pool is warm an encode allocates no buffer of its own.
func EncodeDocument(w io.Writer, f Format, d Document) error {
	switch f {
	case FormatCSV:
		header, records := d.CSV()
		return WriteCSV(w, header, records)
	case FormatSVG:
		return d.SVG(w) // the chart's canvas draws on a pooled body of its own
	}
	b := newBody()
	if err := b.appendDocument(f, d); err != nil {
		b.release()
		return err
	}
	return b.flush(w)
}

// appendDocument appends d's text, json or ndjson form to b; on an error b
// holds a partial document.
func (b *body) appendDocument(f Format, d Document) error {
	switch f {
	case FormatText, "":
		if bars, ok := d.(Bars); ok { // the aggregate report renders in place
			*b = bars.appendText(*b)
		} else {
			*b = append(*b, d.Text()...)
		}
	case FormatJSON:
		// The compact form is json.Marshal's bytes plus the Encoder's line
		// feed, which indentJSON copies through as the body's last byte.
		compact := newBody()
		defer compact.release()
		if err := json.NewEncoder(compact).Encode(d.JSON()); err != nil {
			return err
		}
		*b = indentJSON(*b, *compact)
	case FormatNDJSON:
		enc, v := json.NewEncoder(b), d.JSON()
		rows, ok := v.([]ReportRow)
		if !ok {
			return enc.Encode(v)
		}
		for i := range rows {
			if err := enc.Encode(&rows[i]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("stack: unknown format %q", f)
	}
	return nil
}

// bodyCap is the capacity past which a body is left to the collector rather
// than pooled: a warmed memo-hit reply (a stack, a 32-interval series, an
// advice chart) fits well inside it, while a sweep's megabyte SVG would pin
// its buffer for as long as the pool keeps it.
const bodyCap = 64 << 10

// body is a reply under construction: every renderer appends to it, and
// json.Encoder writes into it.
type body []byte

// Write appends p; it never fails.
func (b *body) Write(p []byte) (int, error) { *b = append(*b, p...); return len(p), nil }

// bodies holds released bodies, empty and at most bodyCap in capacity, for
// the next render; a pooled body is used by one render at a time.
var bodies = sync.Pool{New: func() any { return new(body) }}

// newBody takes an empty body from the pool.
func newBody() *body { return bodies.Get().(*body) }

// release empties b and returns it to the pool, unless it grew past
// bodyCap. b must not be used afterwards.
func (b *body) release() {
	if cap(*b) <= bodyCap {
		*b = (*b)[:0]
		bodies.Put(b)
	}
}

// flush writes b to w in one Write and releases it; io.Writer's contract
// (Write must not retain p) is what makes the reuse safe.
func (b *body) flush(w io.Writer) error {
	_, err := w.Write(*b)
	b.release()
	return err
}

// Encode is EncodeDocument(w, f, Bars(bars)); it survives as a name because
// benchmark/probes.go compiles against it.
func Encode(w io.Writer, f Format, bars []Bar) error { return EncodeDocument(w, f, Bars(bars)) }

// Bars is the aggregate report: one speedup stack per bar.
type Bars []Bar

// Text is the ASCII rendering followed by the numeric table.
func (bars Bars) Text() string { return string(bars.appendText(nil)) }

// appendText appends Text's bytes to b.
func (bars Bars) appendText(b []byte) []byte {
	return appendTable(append(appendRender(b, bars, 64), '\n'), bars)
}

// JSON is the []ReportRow form, one row per stack, in order.
func (bars Bars) JSON() any {
	rows := make([]ReportRow, len(bars))
	for i, b := range bars {
		rows[i] = Row(b)
	}
	return rows
}

// CSV is one record per stack with every component in speedup units. The
// column layout is shared with the experiment harness's figure CSV emitters.
func (bars Bars) CSV() ([]string, [][]string) {
	header := []string{"label", "threads", "estimated", "actual",
		"base", "posLLC", "negLLC", "netLLC", "memory", "spin", "yield", "imbalance"}
	records := make([][]string, len(bars))
	for i, bar := range bars {
		s := bar.Stack
		tp := float64(s.Tp)
		records[i] = []string{
			bar.Label, strconv.Itoa(s.N), CSVFloat(s.Estimated()), CSVFloat(s.ActualSpeedup),
			CSVFloat(s.Base()), CSVFloat(s.Components.PosLLC / tp), CSVFloat(s.Components.NegLLC / tp),
			CSVFloat(s.Components.Net() / tp), CSVFloat(s.Components.NegMem / tp),
			CSVFloat(s.Components.Spin / tp), CSVFloat(s.Components.Yield / tp),
			CSVFloat(s.Components.Imbalance / tp),
		}
	}
	return header, records
}

// CSVFloat is the spelling of a float in every CSV report of the repo:
// fixed-point, four decimals.
func CSVFloat(v float64) string { return string(appendFixed(make([]byte, 0, 24), v, 4)) }

// WriteCSV writes header and then records to w as one CSV document, in one
// Write — the shared tail of every CSV report (stacks, time series, advice,
// what-if and the figure tables), so quoting is decided in one place
// (appendCSV).
func WriteCSV(w io.Writer, header []string, records [][]string) error {
	b := newBody()
	*b = appendCSV(*b, header)
	for _, rec := range records {
		*b = appendCSV(*b, rec)
	}
	return b.flush(w)
}
