package stack

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/core"
)

// The exact rows of an aggregate report (FormatRows) are the numbers every
// other format renders, bit for bit, so a reader can render any format of
// the report from them. Each bar is its label's length as a uvarint and the
// label's bytes, then rowWords little-endian 64-bit words: N, Tp, the eight
// core.Components in declaration order and ActualSpeedup, each float as its
// bit pattern. Bars follow each other with no count and no separator.
const rowWords = 11

// AppendRows appends the exact rows of bars to b.
func (bars Bars) AppendRows(b []byte) []byte {
	for _, bar := range bars {
		s, c, f := bar.Stack, bar.Stack.Components, math.Float64bits
		b = append(binary.AppendUvarint(b, uint64(len(bar.Label))), bar.Label...)
		for _, w := range [rowWords]uint64{uint64(s.N), s.Tp, f(c.NegLLC), f(c.PosLLC), f(c.NegMem), f(c.Spin),
			f(c.Yield), f(c.Imbalance), f(c.Coherence), f(c.ParallelOverhead), f(s.ActualSpeedup)} {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// errRows is DecodeRows' error for data that is not a whole number of bars.
var errRows = errors.New("stack: malformed exact rows")

// DecodeRows reads the bars whose exact rows are data (AppendRows); data
// that ends inside a bar is an error.
func DecodeRows(data []byte) (Bars, error) {
	var bars Bars
	for len(data) > 0 {
		size, k := binary.Uvarint(data)
		if k <= 0 || size > uint64(len(data)-k) || uint64(len(data)-k)-size < 8*rowWords {
			return nil, errRows
		}
		label := string(data[k : k+int(size)])
		data = data[k+int(size):]
		var w [rowWords]uint64
		for i := range w {
			w[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		data = data[8*rowWords:]
		f := math.Float64frombits
		bars = append(bars, Bar{Label: label, Stack: core.Stack{N: int(w[0]), Tp: w[1], ActualSpeedup: f(w[10]),
			Components: core.Components{NegLLC: f(w[2]), PosLLC: f(w[3]), NegMem: f(w[4]), Spin: f(w[5]),
				Yield: f(w[6]), Imbalance: f(w[7]), Coherence: f(w[8]), ParallelOverhead: f(w[9])}}})
	}
	return bars, nil
}
