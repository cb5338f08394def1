package sizedio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates on average over runs calls, after one warm-up call, with
// GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadAllReadsEverything holds ReadAll to io.ReadAll's answer for every
// relation between the declared and the actual length, and for readers that
// hand the bytes over a few at a time.
func TestReadAllReadsEverything(t *testing.T) {
	for _, size := range []int{0, 1, 511, 512, 513, start - 1, start, start + 1, 3*start + 7, 1 << 20} {
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
				if name == "one byte" && size > 3*start+7 {
					continue
				}
				got, err := ReadAll(r(), declared, -1)
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("%s reader, %d bytes declared %d: %d bytes back, %v", name, size, declared, len(got), err)
				}
			}
		}
	}
}

// TestReadAllLimit pins the limit: a stream of exactly limit bytes reads
// whole, one byte more is ErrTooLong with the bytes read so far, and with
// a declared length, whatever it is, the buffer never grows past the limit
// plus that byte.
func TestReadAllLimit(t *testing.T) {
	const limit = 100_000
	for _, declared := range []int64{-1, limit, limit + 1, 1 << 30} {
		body := make([]byte, limit)
		if got, err := ReadAll(bytes.NewReader(body), declared, limit); err != nil || len(got) != limit {
			t.Errorf("declared %d: %d bytes at the limit gave %d bytes and %v", declared, limit, len(got), err)
		}
		body = append(body, 0, 0, 0)
		got, err := ReadAll(bytes.NewReader(body), declared, limit)
		if !errors.Is(err, ErrTooLong) || len(got) != limit+1 {
			t.Errorf("declared %d: %d bytes over a %d limit gave %d bytes and %v, want %d and ErrTooLong",
				declared, len(body), limit, len(got), err, limit+1)
		}
		if declared >= 0 && cap(got) > limit+1 {
			t.Errorf("declared %d: the buffer grew to %d, past the limit's %d", declared, cap(got), limit+1)
		}
	}
	failing := errors.New("connection reset")
	if _, err := ReadAll(iotest.ErrReader(failing), 10, 100); err != failing {
		t.Errorf("a failing reader gave %v, want its own error", err)
	}
}

// TestReadAllCost holds ReadAll to its sizing: a stream that keeps its word
// costs one allocation of its own size (plus the byte that sees EOF) up to
// 64 KiB and at most 2.5 times its size past that, ending in a buffer of
// its own size either way, where io.ReadAll reads a ~3 MB stream at about
// 5.7 times its size; a declared length the stream does not deliver buys at
// most 64 KiB; and a stream of unknown length costs what io.ReadAll makes
// of it.
func TestReadAllCost(t *testing.T) {
	for _, size := range []int{40 << 10, start, 100_000, 3_000_000} {
		body := make([]byte, size)
		var r bytes.Reader
		var got []byte
		read := func(declared int64) func() {
			return func() {
				r.Reset(body)
				got, _ = ReadAll(&r, declared, -1)
			}
		}
		n := bytesPerRun(5, read(int64(size)))
		if cap(got) != size+1 {
			t.Errorf("%d bytes as declared end in a buffer of %d, want %d", size, cap(got), size+1)
		}
		if size <= start {
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
		ReadAll(&r, 32<<20, 32<<20)
	})
	if n > 2*start {
		t.Errorf("1 KiB declared as 32 MiB allocated %.0f bytes, want <= %d", n, 2*start)
	}
}
