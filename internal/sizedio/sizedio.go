// Package sizedio reads a whole stream whose sender announces its length —
// a JSON request body or a reply body with its Content-Length, or a body a
// routing layer buffers to replay — at a cost that is a function of the
// bytes that arrive: neither of the length announced, which a hostile
// sender chooses, nor of append's growth policy, which io.ReadAll inherits
// (about 5.7 times a multi-megabyte body in allocation). A trace is not
// read through it: the trace decoder reads its input once, into the chunks
// it keeps (trace.DecodeFrom).
package sizedio

import (
	"errors"
	"io"
	"math"
)

// start caps the buffer ReadAll makes before it has read a byte, so a
// sender that declares more than it sends buys at most start bytes;
// almost every request and reply body is below it.
const start = 64 << 10

// ErrTooLong is ReadAll's error for a stream longer than its limit.
var ErrTooLong = errors.New("sizedio: stream exceeds its limit")

// ReadAll reads r to its end and returns the bytes, at most limit of them
// (a negative limit is none): a longer stream is ErrTooLong, never a
// truncated read. declared is the length r announces, -1 when unknown.
//
// With a declared length the buffer starts at min(declared, 64 KiB)+1
// bytes and doubles, and once half the declared length has arrived it
// grows to exactly declared+1, the byte past the end that sees EOF. So a
// stream that keeps its word is read into one allocation of its own size
// up to 64 KiB, costs at most about 2.4 times its size above that, and
// ends in a buffer of its own size, which a cache may retain as is; a
// stream that declares 32 MiB and sends nothing costs 64 KiB. With none
// there is no size to aim at: the buffer starts at 512 bytes and grows as
// io.ReadAll's does, by append, whose smaller steps leave less spare room
// in what a cache retains than doubling would. On an error, ReadAll
// returns what it read with it, as io.ReadAll does.
func ReadAll(r io.Reader, declared, limit int64) ([]byte, error) {
	if limit < 0 {
		limit = math.MaxInt64 - 1
	}
	size := int64(512)
	if declared >= 0 {
		size = min(declared, start) + 1
	}
	data := make([]byte, 0, min(size, limit+1))
	lr := io.LimitedReader{R: r, N: limit + 1}
	for {
		if len(data) == cap(data) {
			if int64(len(data)) > limit {
				return data, ErrTooLong
			}
			data = grow(data, declared, limit)
		}
		n, err := lr.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return data, err
		}
	}
	if int64(len(data)) > limit {
		return data, ErrTooLong
	}
	return data, nil
}

// grow returns full data in a larger buffer. With a declared length it is
// twice the size, or exactly the declared length plus one once half of it
// has arrived, never past the limit plus the byte that shows a stream is
// over it (which data is below). Without one it is what append makes of
// it, as in io.ReadAll.
func grow(data []byte, declared, limit int64) []byte {
	if declared < 0 {
		return append(data, 0)[:len(data)]
	}
	size := 2 * int64(cap(data))
	if end := min(declared, limit) + 1; 2*int64(len(data)) >= end && int64(cap(data)) < end {
		size = end
	}
	grown := make([]byte, len(data), min(size, limit+1))
	copy(grown, data)
	return grown
}
