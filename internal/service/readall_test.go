package service

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// TestReadAllReadsEverything holds readAll to io.ReadAll's answer for every
// relation between the declared and the actual length, and for readers that
// hand the bytes over a few at a time.
func TestReadAllReadsEverything(t *testing.T) {
	for _, size := range []int{0, 1, 511, 512, 513, readStart - 1, readStart, readStart + 1, 3*readStart + 7, 1 << 20} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		for _, declared := range []int64{-1, 0, int64(size) / 3, int64(size), int64(size) + 1, 2*int64(size) + 5, 32 << 20} {
			for name, r := range map[string]func() io.Reader{
				"whole":    func() io.Reader { return bytes.NewReader(body) },
				"one byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) },
				"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(body)) },
			} {
				if name == "one byte" && size > 3*readStart+7 {
					continue
				}
				got, err := readAll(r(), declared, MaxTraceBytes)
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("%s reader, %d bytes declared %d: %d bytes back, %v", name, size, declared, len(got), err)
				}
			}
		}
	}
}

// TestReadAllLimit pins the limit: a stream of exactly limit bytes reads
// whole, one byte more is errTooLong with the bytes read so far, and with
// a declared length, whatever it is, the buffer never grows past the limit
// plus that byte.
func TestReadAllLimit(t *testing.T) {
	const limit = 100_000
	for _, declared := range []int64{-1, limit, limit + 1, 1 << 30} {
		body := make([]byte, limit)
		if got, err := readAll(bytes.NewReader(body), declared, limit); err != nil || len(got) != limit {
			t.Errorf("declared %d: %d bytes at the limit gave %d bytes and %v", declared, limit, len(got), err)
		}
		body = append(body, 0, 0, 0)
		got, err := readAll(bytes.NewReader(body), declared, limit)
		if !errors.Is(err, errTooLong) || len(got) != limit+1 {
			t.Errorf("declared %d: %d bytes over a %d limit gave %d bytes and %v, want %d and errTooLong",
				declared, len(body), limit, len(got), err, limit+1)
		}
		if declared >= 0 && cap(got) > limit+1 {
			t.Errorf("declared %d: the buffer grew to %d, past the limit's %d", declared, cap(got), limit+1)
		}
	}
	failing := errors.New("connection reset")
	if _, err := readAll(iotest.ErrReader(failing), 10, 100); err != failing {
		t.Errorf("a failing reader gave %v, want its own error", err)
	}
}

// TestReadAllCost holds readAll to its sizing: a stream that keeps its word
// costs one allocation of its own size (plus the byte that sees EOF) up to
// 64 KiB and at most 2.5 times its size past that, ending in a buffer of
// its own size either way, where io.ReadAll reads a ~3 MB stream at about
// 5.7 times its size; a declared length the stream does not deliver buys at
// most 64 KiB; and a stream of unknown length costs what io.ReadAll makes
// of it.
func TestReadAllCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, size := range []int{40 << 10, readStart, 100_000, 3_000_000} {
		body := make([]byte, size)
		var r bytes.Reader
		var got []byte
		read := func(declared int64) func() {
			return func() {
				r.Reset(body)
				got, _ = readAll(&r, declared, MaxTraceBytes)
			}
		}
		n := bytesPerRun(5, read(int64(size)))
		if cap(got) != size+1 {
			t.Errorf("%d bytes as declared end in a buffer of %d, want %d", size, cap(got), size+1)
		}
		if size <= readStart {
			if allocs := testing.AllocsPerRun(5, read(int64(size))); allocs != 1 {
				t.Errorf("%d bytes as declared took %v allocations, want 1", size, allocs)
			}
		} else if n > 2.5*float64(size) {
			t.Errorf("%d bytes as declared allocated %.0f bytes (%.2f times), want <= 2.5 times", size, n, n/float64(size))
		}

		n = bytesPerRun(5, read(-1))
		ioReadAll := bytesPerRun(5, func() {
			r.Reset(body)
			io.ReadAll(&r)
		})
		if n > ioReadAll+1024 {
			t.Errorf("%d bytes of unknown length allocated %.0f bytes, io.ReadAll %.0f", size, n, ioReadAll)
		}
	}
	short := make([]byte, 1<<10)
	var r bytes.Reader
	n := bytesPerRun(5, func() {
		r.Reset(short)
		readAll(&r, 32<<20, 32<<20)
	})
	if n > 2*readStart {
		t.Errorf("1 KiB declared as 32 MiB allocated %.0f bytes, want <= %d", n, 2*readStart)
	}
}
