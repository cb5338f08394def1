package trace

import (
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
)

// chunkSize bounds one section chunk DecodeFrom reads, and so what a
// reader that declares a long section and sends little of it costs.
const chunkSize = 64 << 10

// frontSize is the buffer DecodeFrom reads the header and the section
// prefixes through; it holds a whole label (MaxLabelLen).
const frontSize = 4 << 10

// source feeds the decoder a trace's bytes in order, either from memory,
// where every slice it hands out is a sub-slice of the trace, or from a
// reader, through a small front buffer for the header and the section
// prefixes and into new chunks for section bodies. The decoder is the same
// over both.
type source struct {
	r     io.Reader // nil: buf is the whole trace
	buf   []byte    // buf[pos:] is read and not yet consumed
	pos   int
	off   int       // the offset of buf[pos] in the trace
	err   error     // what ended the input, io.EOF at its end; nil while more may come
	chunk int       // the most bytes one section chunk holds
	hash  hash.Hash // once set, sees every byte consumed
}

// inMemory is the source of a trace held whole: a section is one chunk.
func inMemory(data []byte) *source {
	return &source{buf: data, err: io.EOF, chunk: math.MaxInt}
}

// fromReader is the source of a trace read from r in chunks of at most
// chunk bytes (at least twice maxOpLen, so every chunk holds an op).
func fromReader(r io.Reader, chunk int) *source {
	return &source{r: r, buf: make([]byte, 0, frontSize), chunk: chunk}
}

// read reads into p until at least least bytes have arrived or the input
// ends, recording what ended it.
func (s *source) read(p []byte, least int) int {
	n := 0
	for n < least && s.err == nil {
		m, err := s.r.Read(p[n:])
		n += m
		s.err = err
	}
	return n
}

// fill reads into the front until at least n bytes are unconsumed or the
// input ends; n is at most frontSize.
func (s *source) fill(n int) {
	if len(s.buf)-s.pos >= n || s.err != nil {
		return
	}
	s.buf = s.buf[:copy(s.buf[:cap(s.buf)], s.buf[s.pos:])]
	s.pos = 0
	s.buf = s.buf[:len(s.buf)+s.read(s.buf[len(s.buf):cap(s.buf)], n-len(s.buf))]
}

// pass moves the offset over p, consumed, and hashes it.
func (s *source) pass(p []byte) {
	s.off += len(p)
	if s.hash != nil {
		s.hash.Write(p)
	}
}

// consume consumes n buffered bytes.
func (s *source) consume(n int) {
	s.pass(s.buf[s.pos : s.pos+n])
	s.pos += n
}

// uvarint consumes one varint; what names it in the positioned error.
func (s *source) uvarint(what string) (uint64, error) {
	s.fill(binary.MaxVarintLen64)
	v, n := binary.Uvarint(s.buf[s.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or malformed varint (%s) at offset %d", what, s.off)
	}
	s.consume(n)
	return v, nil
}

// skip consumes up to n bytes through the front and returns how many it
// consumed: fewer only when the input ends first.
func (s *source) skip(n uint64) uint64 {
	done := uint64(0)
	for {
		m := int(min(n-done, uint64(len(s.buf)-s.pos)))
		s.consume(m)
		if done += uint64(m); done == n || s.err != nil {
			return done
		}
		s.fill(1)
	}
}

// rest consumes the input to its end, unhashed, and returns how many bytes
// that was: what an error about the bytes left needs to know.
func (s *source) rest() uint64 {
	s.hash = nil
	return s.skip(math.MaxUint64)
}

// take consumes up to n more bytes and returns them after carry, the
// unconsumed tail of the slice the previous take returned, in a slice the
// Data may keep: in memory a sub-slice of the trace, from a reader a new
// chunk, the front's bytes copied in and the rest read straight into it.
// It returns fewer than len(carry)+n bytes only when the input ends first.
func (s *source) take(carry []byte, n int) []byte {
	if s.r == nil {
		n = min(n, len(s.buf)-s.pos)
		c := s.buf[s.pos-len(carry) : s.pos+n]
		s.consume(n)
		return c
	}
	c := make([]byte, len(carry)+n)
	from := copy(c, carry)
	k := from + copy(c[from:], s.buf[s.pos:])
	s.pos += k - from
	k += s.read(c[k:], len(c)-k)
	s.pass(c[from:k])
	return c[:k]
}
