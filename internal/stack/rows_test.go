package stack_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stack"
)

// sameBits reports whether a and b hold the same value in every leaf field,
// floats compared by their bit patterns (so NaN payloads and -0 count).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// roundTrip encodes bars as exact rows and decodes them again, failing t
// unless every bit comes back.
func roundTrip(t *testing.T, bars stack.Bars) {
	t.Helper()
	data := bars.AppendRows(nil)
	got, err := stack.DecodeRows(data)
	if err != nil {
		t.Fatalf("DecodeRows(AppendRows(%v)): %v", bars, err)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(bars)) {
		t.Fatalf("round trip of %#v gave %#v", bars, got)
	}
	var viaEncode stack.Bars
	var decodeErr error
	err = stack.EncodeDocument(writerFunc(func(p []byte) { viaEncode, decodeErr = stack.DecodeRows(p) }), stack.FormatRows, bars)
	if err != nil || decodeErr != nil || !sameBits(reflect.ValueOf(viaEncode), reflect.ValueOf(bars)) {
		t.Fatalf("EncodeDocument(rows) of %#v: %v, %v, decodes to %#v", bars, err, decodeErr, viaEncode)
	}
}

// writerFunc is an io.Writer that hands each Write to a function.
type writerFunc func([]byte)

func (f writerFunc) Write(p []byte) (int, error) { f(p); return len(p), nil }

// FuzzRowsRoundTrip holds the exact-rows codec to a bit-exact round trip of
// any bar, and DecodeRows to reading arbitrary bytes without a panic, into
// bars that round-trip in turn.
func FuzzRowsRoundTrip(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	for _, seed := range []struct {
		label string
		n     int64
		tp    uint64
		v     [9]uint64
		data  []byte
	}{
		{"cholesky_splash2", 16, 123456789, [9]uint64{math.Float64bits(1.5), math.Float64bits(2.25)}, nil},
		{"", 0, 0, [9]uint64{}, []byte{0}},
		{"\xff\xfe not utf-8", -1, math.MaxUint64, [9]uint64{nan, nan | 1, 0x7ff0000000000001, 0xfff8000000000bad,
			math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), math.Float64bits(math.Copysign(0, -1)),
			math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(math.MaxFloat64)}, []byte{1, 'x', 2, 3}},
		{"x", math.MinInt64, 1, [9]uint64{}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	} {
		v := seed.v
		f.Add(seed.label, seed.n, seed.tp, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], seed.data)
	}
	f.Fuzz(func(t *testing.T, label string, n int64, tp uint64, v0, v1, v2, v3, v4, v5, v6, v7, v8 uint64, data []byte) {
		bits := math.Float64frombits
		bar := stack.Bar{Label: label, Stack: core.Stack{N: int(n), Tp: tp, ActualSpeedup: bits(v8),
			Components: core.Components{NegLLC: bits(v0), PosLLC: bits(v1), NegMem: bits(v2), Spin: bits(v3),
				Yield: bits(v4), Imbalance: bits(v5), Coherence: bits(v6), ParallelOverhead: bits(v7)}}}
		roundTrip(t, stack.Bars{bar})
		roundTrip(t, stack.Bars{bar, {}, bar})
		if bars, err := stack.DecodeRows(data); err == nil {
			roundTrip(t, bars)
		}
	})
}

// TestRowsCarryEveryField fails when stack.Bar, core.Stack or
// core.Components gains a field the exact rows do not carry: it sets every
// leaf field of a bar, by reflection, to a value of its own and requires it
// back. A field of a kind the codec has no spelling for fails by name.
func TestRowsCarryEveryField(t *testing.T) {
	var bar stack.Bar
	next := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.String:
			v.SetString("label \xff" + string(rune('a'+next)))
		case reflect.Int, reflect.Int64:
			v.SetInt(-int64(next))
		case reflect.Uint64:
			v.SetUint(1<<40 + uint64(next))
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(0x7ff8000000000000 | uint64(next))) // a NaN of its own payload
		default:
			t.Fatalf("%s is a %s, which the exact rows have no spelling for", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&bar).Elem(), "Bar")
	roundTrip(t, stack.Bars{bar})
}

// TestDecodeRowsRefusesTruncation: every proper prefix of a bar's rows
// that ends inside the bar is an error, never a shorter report.
func TestDecodeRowsRefusesTruncation(t *testing.T) {
	data := stack.Bars{{Label: "lu", Stack: core.Stack{N: 4, Tp: 1000}}}.AppendRows(nil)
	for i := 1; i < len(data); i++ {
		if bars, err := stack.DecodeRows(data[:i]); err == nil {
			t.Errorf("%d of %d bytes decode to %v", i, len(data), bars)
		}
	}
	if _, err := stack.DecodeRows(nil); err != nil {
		t.Errorf("no bytes: %v, want no bars", err)
	}
	if err := stack.EncodeDocument(writerFunc(func([]byte) {}), stack.FormatRows, stack.TimeSeries{}); err == nil {
		t.Error("a time series encoded as exact rows")
	}
}
