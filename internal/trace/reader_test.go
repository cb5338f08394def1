package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"
)

// readers are the ways a reader may hand a trace over: in whole reads, a
// byte at a time, half of each read, and the last bytes together with
// io.EOF.
var readers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", func(r io.Reader) io.Reader { return r }},
	{"one byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data with EOF", iotest.DataErrReader},
}

// chunkSizes are the section chunk sizes the differential reads at: the
// least that holds an op, one that splits small sections, and DecodeFrom's.
var chunkSizes = []int{maxOpLen, 100, chunkSize}

// Agree decodes data through every reader at every chunk size and holds
// each result to Decode's: the same error text, or the same hash, header,
// op count and op-for-op replay of every stream.
func Agree(t *testing.T, data []byte) {
	t.Helper()
	for i := range readers {
		for _, chunk := range chunkSizes {
			agreeAt(t, data, i, chunk)
		}
	}
}

// agreeAt is Agree for readers[i] at one chunk size.
func agreeAt(t *testing.T, data []byte, i, chunk int) {
	t.Helper()
	rd := readers[i]
	want, werr := Decode(data)
	got, err := decode(fromReader(rd.wrap(bytes.NewReader(data)), chunk))
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s reader, %d-byte chunks: error %v, Decode's %v", rd.name, chunk, err, werr)
	}
	if err == nil && (got.HashHex() != want.HashHex() || !reflect.DeepEqual(got.Header(), want.Header()) ||
		got.TotalOps() != want.TotalOps() || !slices.EqualFunc(replay(t, got), replay(t, want), slices.Equal)) {
		t.Fatalf("%s reader, %d-byte chunks: the trace decodes otherwise than by Decode", rd.name, chunk)
	}
}

// replay drains every stream of d: the threads', then the sequential one
// when it was recorded.
func replay(t *testing.T, d *Data) [][]Op {
	var streams [][]Op
	for i := range d.Threads() {
		streams = append(streams, drain(t, d.ThreadProgram(i)))
	}
	if seq, err := d.SequentialProgram(); err == nil {
		streams = append(streams, drain(t, seq))
	}
	return streams
}

// longFile is a trace of many chunks: a sequential stream and threads
// streams of n pseudo-random ops each over the whole vocabulary, operands
// of every varint width among them, so op boundaries fall at every offset
// of a chunk's end.
func longFile(seed uint64, threads, n int) *File {
	rng := NewRNG(seed)
	wide := func(bits int) uint64 { return rng.Uint64() >> (64 - 1 - rng.Intn(bits)) }
	stream := func() []Op {
		ops := make([]Op, 0, n+1)
		for range n {
			op := Op{Kind: Kind(rng.Intn(int(KindEnd))), N: 1, Overhead: rng.Bool(0.1)}
			switch op.Kind {
			case KindCompute:
				op.N = uint32(wide(32))
			case KindLoad, KindStore:
				op.Addr, op.PC = wide(64), wide(64)
			default:
				op.ID = uint32(wide(20)) // at most MaxSyncID
			}
			if op.Kind != KindCompute && rng.Bool(0.2) {
				op.N = uint32(wide(32))
			}
			ops = append(ops, op)
		}
		return append(ops, Compute(1), End())
	}
	f := &File{
		Header:     Header{Label: "long", Queues: []QueueReg{{ID: 7, Cap: 3}}},
		Sequential: stream(),
	}
	for range threads {
		f.Threads = append(f.Threads, stream())
	}
	return f
}

// encoded is f's encoding.
func encoded(t testing.TB, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeFromAgreesWithDecode holds the reader decoder to Decode over
// FuzzTraceDecode's seeds, every truncation and some corruptions of every
// byte of the sample trace, and two long traces whole, truncated and
// corrupted at chunk ends.
func TestDecodeFromAgreesWithDecode(t *testing.T) {
	valid := encoded(t, sampleFile())
	inputs := [][]byte{valid, valid[:len(valid)/2], []byte("SPTR\x01\x00"), []byte(zeroWork), {}}
	for i := range valid {
		inputs = append(inputs, valid[:i])
		for _, b := range []byte{0x00, 0x7f, 0x80, 0xff, ^valid[i]} {
			bad := bytes.Clone(valid)
			bad[i] = b
			inputs = append(inputs, bad)
		}
	}
	for seed := range uint64(2) {
		long := encoded(t, longFile(seed+1, 2, 10_000))
		inputs = append(inputs, long, append(bytes.Clone(long), 0), long[:len(long)-1])
		for _, at := range []int{chunkSize - 1, chunkSize, len(long) / 2} {
			bad := bytes.Clone(long)
			bad[at] = 0xff
			inputs = append(inputs, long[:at], bad)
		}
	}
	for _, data := range inputs {
		Agree(t, data)
	}
}

// TestDecodeFromChunks holds DecodeFrom's chunks to the bytes it read: a
// long trace read from a reader is held in chunks of at most chunkSize
// bytes, each of whole ops, that together are its sections; Decode keeps a
// section as one sub-slice of its input.
func TestDecodeFromChunks(t *testing.T) {
	data := encoded(t, longFile(3, 2, 40_000))
	d, err := DecodeFrom(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Threads() {
		chunks, whole := d.threads[i], m.threads[i]
		if len(chunks) < 2 || len(whole) != 1 {
			t.Fatalf("thread %d: %d chunks from a reader and %d in memory, want several and one", i, len(chunks), len(whole))
		}
		if !bytes.Equal(bytes.Join(chunks, nil), whole[0]) {
			t.Fatalf("thread %d: the chunks are not the section", i)
		}
		for j, c := range chunks {
			if len(c) > chunkSize {
				t.Fatalf("thread %d chunk %d holds %d bytes, more than %d", i, j, len(c), chunkSize)
			}
			dec := decoder{buf: c}
			var op Op
			for dec.remaining() > 0 {
				if err := decodeOp(&dec, &op); err != nil {
					t.Fatalf("thread %d chunk %d does not hold whole ops: %v", i, j, err)
				}
			}
		}
	}
}

// TestDecodeFromReadError holds DecodeFrom to its read-error contract: a
// reader that fails part way through the sample trace makes it return a
// *ReadError with the reader's text, which errors.As finds and errors.Is
// sees through to the reader's own error.
func TestDecodeFromReadError(t *testing.T) {
	valid := encoded(t, sampleFile())
	failure := errors.New("the connection dropped")
	r := io.MultiReader(bytes.NewReader(valid[:len(valid)/2]), iotest.ErrReader(failure))
	_, err := DecodeFrom(r)
	var re *ReadError
	if !errors.As(err, &re) || !errors.Is(err, failure) || err.Error() != failure.Error() {
		t.Fatalf("DecodeFrom over a failing reader: error %T %v, want a *ReadError wrapping %q", err, err, failure)
	}
}
