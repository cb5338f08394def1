package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// sampleOps exercises the full op vocabulary, including non-default N and
// the overhead flag.
func sampleOps() []Op {
	return []Op{
		Compute(1200),
		{Kind: KindCompute, N: 7, Overhead: true},
		Load(0x1000_0000_0040, 17),
		Store(0x2000_0000_0080, 23),
		{Kind: KindLoad, N: 4, Addr: 64, PC: 3, Overhead: true},
		Lock(2),
		Unlock(2),
		Barrier(2001),
		Push(0),
		Pop(0),
		{Kind: KindPop, N: 3, ID: 1},
		CloseQueue(0),
		End(),
	}
}

func sampleFile() *File {
	return &File{
		Header: Header{
			Label:        "sample_workload",
			LockGrace:    1 << 40,
			BarrierGrace: 1500,
			Queues:       []QueueReg{{ID: 0, Cap: 16}, {ID: 1, Cap: 1}},
			Barriers:     []BarrierReg{{ID: 2000, Parties: 1}, {ID: 2001, Parties: 3}},
		},
		Sequential: []Op{Compute(10), Load(64, 1), End()},
		Threads:    [][]Op{sampleOps(), {Compute(5), End()}},
	}
}

// drain replays a program to exhaustion via NextBatch, asserting the batch
// contract: every batch ends at (or before) the first KindPop, and the
// stream terminates with KindEnd.
func drain(t *testing.T, p Program) []Op {
	t.Helper()
	var out []Op
	buf := make([]Op, 5)
	for steps := 0; ; steps++ {
		if steps > 1<<20 {
			t.Fatalf("program did not terminate")
		}
		n := p.NextBatch(buf, Feedback{PopOK: true})
		if n < 1 || n > len(buf) {
			t.Fatalf("NextBatch returned %d ops for a %d-op buffer", n, len(buf))
		}
		for i, op := range buf[:n] {
			if op.Kind == KindPop && i != n-1 {
				t.Fatalf("batch continued past a %v at position %d of %d", KindPop, i, n)
			}
			out = append(out, op)
			if op.Kind == KindEnd {
				return out
			}
		}
	}
}

// roundTrip encodes f and decodes it back: the replayable form a reader of
// the written file sees.
func roundTrip(f *File) (*Data, error) {
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return nil, err
	}
	return Decode(buf.Bytes())
}

func TestFileRoundTrip(t *testing.T) {
	f := sampleFile()
	d, err := roundTrip(f)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	h := d.Header()
	if h.Label != f.Label || d.Threads() != 2 {
		t.Fatalf("header mismatch: label %q threads %d", h.Label, d.Threads())
	}
	if h.LockGrace != f.LockGrace || h.BarrierGrace != f.BarrierGrace {
		t.Fatalf("grace mismatch: %d/%d", h.LockGrace, h.BarrierGrace)
	}
	if !reflect.DeepEqual(h.Queues, f.Queues) || !reflect.DeepEqual(h.Barriers, f.Barriers) {
		t.Fatalf("registration mismatch: %v %v", h.Queues, h.Barriers)
	}
	wantOps := uint64(len(f.Sequential) + len(f.Threads[0]) + len(f.Threads[1]))
	if d.TotalOps() != wantOps {
		t.Fatalf("TotalOps = %d, want %d", d.TotalOps(), wantOps)
	}
	for i := range f.Threads {
		if got := drain(t, d.ThreadProgram(i)); !reflect.DeepEqual(got, f.Threads[i]) {
			t.Fatalf("thread %d stream mismatch:\n got %v\nwant %v", i, got, f.Threads[i])
		}
	}
	seq, err := d.SequentialProgram()
	if err != nil {
		t.Fatalf("SequentialProgram: %v", err)
	}
	if got := drain(t, seq); !reflect.DeepEqual(got, f.Sequential) {
		t.Fatalf("sequential stream mismatch: %v", got)
	}
	// Readers are independent: draining one must not advance another.
	a, b := d.ThreadProgram(0), d.ThreadProgram(0)
	drain(t, a)
	if got := drain(t, b); !reflect.DeepEqual(got, f.Threads[0]) {
		t.Fatalf("second reader saw a drained stream")
	}
}

func TestHashIgnoresLabel(t *testing.T) {
	f := sampleFile()
	d1, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Label = "renamed"
	d2, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	if d1.HashHex() != d2.HashHex() {
		t.Fatalf("relabeling changed the content hash: %s vs %s", d1.HashHex(), d2.HashHex())
	}
	f.LockGrace++
	d3, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	if d3.HashHex() == d1.HashHex() {
		t.Fatalf("changing lock_grace did not change the content hash")
	}
}

func TestDecodeMetaMatchesDecode(t *testing.T) {
	var buf bytes.Buffer
	f := sampleFile()
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMeta(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := Meta{Header: d.Header(), Threads: d.Threads(), HashHex: d.HashHex()}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("DecodeMeta = %+v, want %+v", m, want)
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleFile().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:5],
		"bad magic":      append([]byte("NOPE"), valid[4:]...),
		"bad version":    append([]byte("SPTR\x09"), valid[5:]...),
		"unknown flags":  append([]byte("SPTR\x01\xff"), valid[6:]...),
		"truncated body": valid[:len(valid)-3],
		"trailing junk":  append(append([]byte{}, valid...), 0x00),
		"zero work":      []byte(zeroWork),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted hostile input", name)
		}
	}
	// The errors a reader decoding as the bytes arrive must still word as a
	// decoder of the whole input does: each fault is reported where the
	// whole input places it, against the bytes the whole input holds.
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"count past a bad registration": {append(append(bytes.Clone(valid[:30]), 45), valid[30:]...),
			"trace: implausible queue count 45"},
		"label past the input": {append([]byte("SPTR\x01\x00\xac\x02"), make([]byte, 10)...),
			"trace: label length 300 exceeds the 10 bytes remaining"},
		"truncated body": {valid[:len(valid)-3],
			"trace: thread 1 stream: trace: stream length 3 exceeds the 0 bytes remaining"},
		"trailing junk": {append(bytes.Clone(valid), 0x00),
			"trace: 1 trailing bytes after the last stream"},
		"stream past the input": {append([]byte("SPTR\x01\x00\x00\x00\x00\x00\x00\x01\x01\x80\x80\x80\x0f"), make([]byte, 1<<10)...),
			"trace: thread 0 stream: trace: stream length 31457280 exceeds the 1024 bytes remaining"},
		"ops past the count": {[]byte("SPTR\x01\x00\x00\x00\x00\x00\x00\x01\x02\x04\x00\x01\x09\x09"),
			"trace: thread 0 stream: 1 bytes beyond the declared 2 ops"},
		"varint past the body": {[]byte("SPTR\x01\x00\x00\x00\x00\x00\x00\x01\x02\x03\x00\x01\x01"),
			"trace: thread 0 stream: op 1: trace: truncated or malformed varint (address) at offset 3"},
	} {
		if _, err := Decode(tc.data); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Decode error %v, want %q", name, err, tc.want)
		}
	}
	// End mid-stream must be rejected.
	if _, err := roundTrip((&File{Threads: [][]Op{{Compute(1), End(), Compute(1), End()}}})); err == nil {
		t.Errorf("mid-stream End was accepted")
	}
	if _, err := roundTrip((&File{Threads: [][]Op{{Compute(1)}}})); err == nil {
		t.Errorf("stream without End was accepted")
	}
	// No thread op doing work: refused by Encode too; one idle thread is fine.
	if _, err := roundTrip((&File{Sequential: []Op{Compute(1), End()}, Threads: [][]Op{{End()}, {End()}}})); !errors.Is(err, errNoWork) {
		t.Errorf("zero-work file: %v, want %v", err, errNoWork)
	}
	if _, err := roundTrip((&File{Threads: [][]Op{{Compute(0), End()}, {Compute(0), End()}}})); !errors.Is(err, errNoWork) {
		t.Errorf("empty-burst file: %v, want %v", err, errNoWork)
	}
	if _, err := roundTrip((&File{Threads: [][]Op{{End()}, {Compute(1), End()}}})); err != nil {
		t.Errorf("one idle thread refused: %v", err)
	}
}

// zeroWork is a 21-byte trace — a sequential stream and two threads, each
// nothing but End — that every decoder check but errNoWork passes. Its
// replay takes zero cycles, which once made every stack value NaN.
const zeroWork = "SPTR\x01\x01\x00\x00\x00\x00\x00\x02\x01\x01\x09\x01\x01\x09\x01\x01\x09"

func FuzzTraceDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleFile().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SPTR\x01\x00"))
	f.Add([]byte(zeroWork))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic or over-allocate; a reader must decode
		// the bytes as it does — a byte at a time into the smallest chunks,
		// the pair that splits the most reads and carries the most ops; on
		// success the trace must be fully replayable and agree with its
		// cheap meta view.
		agreeAt(t, data, 1, maxOpLen)
		d, err := Decode(data)
		if err != nil {
			return
		}
		m, merr := DecodeMeta(data)
		if merr != nil {
			t.Fatalf("Decode accepted what DecodeMeta rejects: %v", merr)
		}
		if m.Threads != d.Threads() || m.HashHex != d.HashHex() {
			t.Fatalf("meta/full decode disagree: %+v vs %d %s", m, d.Threads(), d.HashHex())
		}
		total := uint64(0)
		progs := make([]Program, 0, d.Threads()+1)
		for i := 0; i < d.Threads(); i++ {
			progs = append(progs, d.ThreadProgram(i))
		}
		if sp, err := d.SequentialProgram(); err == nil { // fails only when none was recorded
			progs = append(progs, sp)
		}
		ops := make([]Op, 64)
		for _, p := range progs {
			for {
				n := p.NextBatch(ops, Feedback{})
				if n < 1 || n > len(ops) {
					t.Fatalf("NextBatch returned %d", n)
				}
				total += uint64(n)
				if total > d.TotalOps() {
					t.Fatalf("streams yielded more than the declared %d ops", d.TotalOps())
				}
				if ops[n-1].Kind == KindEnd {
					break
				}
			}
		}
		if total != d.TotalOps() {
			t.Fatalf("streams yielded %d ops, declared %d", total, d.TotalOps())
		}
	})
}

// TestEncodeHeaderBounds pins the registration bounds Encode shares with
// Decode: a queue capacity of MaxQueueCap and MaxThreads barrier parties
// encode and round-trip, one more of either is refused before writing.
func TestEncodeHeaderBounds(t *testing.T) {
	file := func(cap, parties int) *File {
		return &File{
			Header:  Header{Queues: []QueueReg{{ID: 0, Cap: cap}}, Barriers: []BarrierReg{{ID: 2000, Parties: parties}}},
			Threads: [][]Op{{Compute(1), End()}},
		}
	}
	for _, tc := range []struct {
		name         string
		cap, parties int
		ok           bool
	}{
		{"largest queue", MaxQueueCap, 1, true},
		{"widest barrier", 1, MaxThreads, true},
		{"queue too large", MaxQueueCap + 1, 1, false},
		{"barrier too wide", 1, MaxThreads + 1, false},
		{"negative capacity", -1, 1, false},
		{"negative parties", 1, -1, false},
	} {
		var buf bytes.Buffer
		err := file(tc.cap, tc.parties).Encode(&buf)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Encode error %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err == nil {
			if _, err := Decode(buf.Bytes()); err != nil {
				t.Errorf("%s: Decode refused what Encode wrote: %v", tc.name, err)
			}
		}
	}
}

// TestSyncIDBound pins MaxSyncID at every door: a lock id, a queue
// registration and a barrier registration of MaxSyncID encode and decode,
// by Decode and by a reader alike, and one more is refused by Check (the
// registrations), by Encode and by both decoders, whose error names the id
// and, in an op, its offset.
func TestSyncIDBound(t *testing.T) {
	locks := func(id uint32) [][]Op { return [][]Op{{Lock(id), Unlock(id), End()}} }
	largest := &File{
		Header:  Header{Queues: []QueueReg{{ID: MaxSyncID, Cap: 1}}, Barriers: []BarrierReg{{ID: MaxSyncID, Parties: 1}}},
		Threads: locks(MaxSyncID),
	}
	data := encoded(t, largest)
	if d, err := Decode(data); err != nil || !reflect.DeepEqual(d.Header(), largest.Header) {
		t.Fatalf("the largest ids: Decode gave %v", err)
	}
	Agree(t, data)

	// An op id past the bound cannot be encoded, so the refused bytes are
	// the largest id's with each of its two varints patched to the next id.
	varint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	ops := encoded(t, &File{Threads: locks(MaxSyncID)})
	if n := bytes.Count(ops, varint(MaxSyncID)); n != 2 {
		t.Fatalf("the lock and unlock ids appear %d times in the trace", n)
	}
	pastOps := bytes.ReplaceAll(ops, varint(MaxSyncID), varint(MaxSyncID+1))
	if err := (&File{Threads: locks(MaxSyncID + 1)}).Encode(io.Discard); err == nil ||
		err.Error() != "trace: thread 0 stream: op 0: sync id 1048576 exceeds 1048575" {
		t.Errorf("Encode of lock id %d: %v", MaxSyncID+1, err)
	}
	if _, err := Decode(pastOps); err == nil ||
		err.Error() != "trace: thread 0 stream: op 0: sync id 1048576 at offset 1 exceeds 1048575" {
		t.Errorf("Decode of lock id %d: %v", MaxSyncID+1, err)
	}
	Agree(t, pastOps)

	for _, tc := range []struct {
		want string
		hdr  Header
	}{
		{"trace: queue id 1048576 exceeds 1048575", Header{Queues: []QueueReg{{ID: MaxSyncID + 1, Cap: 1}}}},
		{"trace: barrier id 1048576 exceeds 1048575", Header{Barriers: []BarrierReg{{ID: MaxSyncID + 1, Parties: 1}}}},
	} {
		f := &File{Header: tc.hdr, Threads: locks(0)}
		if err := f.Check(1); err == nil || err.Error() != tc.want {
			t.Errorf("Check: %v, want %q", err, tc.want)
		}
		if err := f.Encode(io.Discard); err == nil || err.Error() != tc.want {
			t.Errorf("Encode: %v, want %q", err, tc.want)
		}
		unchecked, err := f.write(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(unchecked); err == nil || err.Error() != tc.want {
			t.Errorf("Decode: %v, want %q", err, tc.want)
		}
		Agree(t, unchecked)
	}
}

// FuzzFileHeader holds Header.Check to Decode: over every header field —
// label length, graces, registration counts, queue capacities, barrier
// parties and thread count — the check accepts a header exactly when Decode
// accepts the same header written without it. Every stream is
// {Compute(1), End()}, so only the header can be refused.
func FuzzFileHeader(f *testing.F) {
	type header struct {
		label               int
		lockGrace, barGrace uint64
		queues, barriers    int
		queueCap, parties   int
		threads             int
	}
	for _, h := range []header{
		{0, 0, 0, 1, 1, 16, 2, 2},
		{MaxLabelLen, MaxGrace, MaxGrace, 1, 1, MaxQueueCap, MaxThreads, MaxThreads},
		{MaxLabelLen + 1, 0, 0, 0, 0, 0, 0, 1},
		{0, MaxGrace + 1, 0, 0, 0, 0, 0, 1},
		{0, 0, MaxGrace + 1, 0, 0, 0, 0, 1},
		{0, 0, 0, 1, 0, MaxQueueCap + 1, 0, 1},
		{0, 0, 0, 0, 1, 0, MaxThreads + 1, 1},
		{0, 0, 0, 1, 1, -1, -1, 1},
		{0, 0, 0, MaxRegs, MaxRegs, 1, 1, 1},
		{0, 0, 0, MaxRegs + 1, 0, 1, 1, 1},
		{0, 0, 0, 0, MaxRegs + 1, 1, 1, 1},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, MaxThreads + 1},
	} {
		f.Add(uint16(h.label), h.lockGrace, h.barGrace, uint32(h.queues), uint32(h.barriers),
			int64(h.queueCap), int64(h.parties), uint16(h.threads))
	}
	f.Fuzz(func(t *testing.T, label uint16, lockGrace, barGrace uint64, queues, barriers uint32, queueCap, parties int64, threads uint16) {
		// Each count ranges just past its bound, so both sides of every
		// rule stay reachable without huge inputs.
		file := &File{
			Header: Header{
				Label:        strings.Repeat("x", int(label)%(2*MaxLabelLen)),
				LockGrace:    lockGrace,
				BarrierGrace: barGrace,
				Queues:       make([]QueueReg, int(queues)%(MaxRegs+2)),
				Barriers:     make([]BarrierReg, int(barriers)%(MaxRegs+2)),
			},
			Threads: make([][]Op, int(threads)%(2*MaxThreads)),
		}
		for i := range file.Queues {
			file.Queues[i] = QueueReg{ID: uint32(i), Cap: int(queueCap)}
		}
		for i := range file.Barriers {
			file.Barriers[i] = BarrierReg{ID: uint32(i), Parties: int(parties)}
		}
		for i := range file.Threads {
			file.Threads[i] = []Op{Compute(1), End()}
		}
		unchecked, err := file.write(nil)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		_, derr := Decode(unchecked)
		cerr := file.Check(len(file.Threads))
		if (cerr == nil) != (derr == nil) {
			t.Fatalf("Check error %v, Decode error %v", cerr, derr)
		}
		var buf bytes.Buffer
		if err := file.Encode(&buf); (err == nil) != (cerr == nil) {
			t.Fatalf("Encode error %v, Check error %v", err, cerr)
		}
		if cerr == nil && !bytes.Equal(buf.Bytes(), unchecked) {
			t.Fatal("Encode wrote other bytes than the unchecked writer")
		}
	})
}
