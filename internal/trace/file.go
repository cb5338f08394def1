package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Binary op-trace format (version 1). A trace file captures one recorded
// simulation: the exact per-thread op streams the simulator consumed, the
// single-threaded reference stream, and the machine registrations (bounded
// queues, stage barriers) plus sync-library grace overrides a replay needs
// to reproduce the run byte-identically.
//
// Layout (all integers unsigned LEB128 varints unless noted):
//
//	offset 0   magic "SPTR" (4 raw bytes)
//	offset 4   version (1 raw byte, = 1)
//	offset 5   flags   (1 raw byte; bit0 = sequential stream present)
//	           label       varint length (<= MaxLabelLen) + raw bytes
//	           lock_grace / barrier_grace   varints (cycles, <= MaxGrace)
//	           queue registrations    varint count (<= MaxRegs), then per queue: id (<= MaxSyncID), cap in [1, MaxQueueCap]
//	           barrier registrations  varint count (<= MaxRegs), then per barrier: id (<= MaxSyncID), parties in [1, MaxThreads]
//	           threads     varint T in [1, MaxThreads]
//	           sequential section (only when flagged), then T thread sections
//
// A section is: varint op count, varint byte length, then exactly that many
// encoded ops occupying exactly that many bytes, the last of which must be
// KindEnd (and KindEnd appears nowhere else). Each op starts with a head
// byte — bits 0..3 the Kind, bit 4 "N present", bit 5 the Overhead flag,
// bits 6..7 reserved zero — followed by kind-dependent varint operands:
// Compute carries N always; Load/Store carry Addr then PC (then N when
// flagged, default 1); sync ops carry ID (<= MaxSyncID; then N when
// flagged); End carries nothing. Decode (a trace in memory) and DecodeFrom
// (a reader) validate every section eagerly, so the streaming readers
// handed to the simulator can never fail mid-run on hostile input.
//
// Content identity: the trace hash is sha256 over the version byte, the
// flags byte and everything after the label. The label is excluded for the
// same reason Spec.Fingerprint excludes Name and Suite — naming labels a
// trace, it does not change what replays — so relabeled copies of one
// recording share their cache, memo and fleet-routing identity.

const (
	formatMagic   = "SPTR"
	formatVersion = 1

	flagSequential = 1 << 0

	headKindMask = 0x0f
	headHasN     = 1 << 4
	headOverhead = 1 << 5
)

// Header bounds of the format, judged by Header.Check: the label's length
// in bytes, each registration list's length, the thread count (and a
// barrier's parties), a queue's capacity, the grace overrides in cycles,
// which the workload spec takes as its own bound so a decoded trace always
// builds a valid replay spec, and a registration's sync id, which the
// decoder and Encode judge in ops too: an id's value sizes a sync table.
const (
	MaxLabelLen = 256
	MaxRegs     = 1 << 16
	MaxThreads  = 256
	MaxQueueCap = 1 << 20
	MaxGrace    = 1 << 62
	MaxSyncID   = 1<<20 - 1
)

// QueueReg is one bounded-queue registration a replay must re-create.
type QueueReg struct {
	ID  uint32
	Cap int
}

// BarrierReg is one barrier registration a replay must re-create.
type BarrierReg struct {
	ID      uint32
	Parties int
}

// Header is everything a trace records besides its op streams: the one
// view File, Data and Meta share.
type Header struct {
	// Label names the recording (reports, logs). It is excluded from the
	// content hash: relabeling never changes replay identity.
	Label string
	// LockGrace and BarrierGrace are the recorded workload's sync-library
	// spin-grace overrides in cycles (0 = machine default).
	LockGrace, BarrierGrace uint64
	// Queues and Barriers are the machine registrations the recorded run
	// was simulated with; replay re-creates them verbatim.
	Queues   []QueueReg
	Barriers []BarrierReg
}

// Check refuses a header of a trace with the given thread count outside
// the bounds above, or with a queue of no capacity or a barrier of no
// parties, which the sync library cannot build. It is the one judge of a
// header value: Encode and workload.Record run it before they write or
// simulate, and every decoder as soon as the header is read.
func (h Header) Check(threads int) error { return h.check(len(h.Label), threads) }

// check is Check with the label's length given apart: the decoder keeps no
// label past MaxLabelLen, only its length.
func (h Header) check(labelLen, threads int) error {
	if threads < 1 || threads > MaxThreads {
		return fmt.Errorf("trace: thread count must be in [1, %d], got %d", MaxThreads, threads)
	}
	if labelLen > MaxLabelLen {
		return fmt.Errorf("trace: label length %d exceeds %d", labelLen, MaxLabelLen)
	}
	if len(h.Queues) > MaxRegs || len(h.Barriers) > MaxRegs {
		return fmt.Errorf("trace: at most %d queue and %d barrier registrations", MaxRegs, MaxRegs)
	}
	for _, q := range h.Queues {
		if q.ID > MaxSyncID {
			return fmt.Errorf("trace: queue id %d exceeds %d", q.ID, MaxSyncID)
		}
		if q.Cap < 1 || q.Cap > MaxQueueCap {
			return fmt.Errorf("trace: queue %d capacity must be in [1, %d], got %d", q.ID, MaxQueueCap, q.Cap)
		}
	}
	for _, b := range h.Barriers {
		if b.ID > MaxSyncID {
			return fmt.Errorf("trace: barrier id %d exceeds %d", b.ID, MaxSyncID)
		}
		if b.Parties < 1 || b.Parties > MaxThreads {
			return fmt.Errorf("trace: barrier %d parties must be in [1, %d], got %d", b.ID, MaxThreads, b.Parties)
		}
	}
	if h.LockGrace > MaxGrace || h.BarrierGrace > MaxGrace {
		return fmt.Errorf("trace: grace values must be <= %d cycles", uint64(MaxGrace))
	}
	return nil
}

// File is a recorded trace in memory, ready to encode. Build one from
// Recorder output (the workload package's Record helper does) and write it
// with Encode; read one back with Decode.
type File struct {
	Header
	// Sequential is the single-threaded reference stream (optional; a
	// trace without one can replay its parallel run but not produce a
	// speedup stack, which needs the sequential time).
	Sequential []Op
	// Threads holds one recorded op stream per thread.
	Threads [][]Op
}

// Encode writes the file in binary form. It fails on every shape Decode
// refuses — a header Check refuses, a malformed op stream, or no thread op
// doing work — so every encoded trace round-trips.
func (f *File) Encode(w io.Writer) error {
	if err := f.Check(len(f.Threads)); err != nil {
		return err
	}
	if !slices.ContainsFunc(f.Threads, func(ops []Op) bool { return slices.ContainsFunc(ops, Op.works) }) {
		return errNoWork
	}
	buf, err := f.write()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// write encodes the file unchecked, failing only on a malformed op stream.
// It writes into one buffer of at most n bytes, every op counted at its
// length (opLen) and every other varint at its widest, so a multi-megabyte
// recording costs one buffer rather than a copy per growth.
func (f *File) write() ([]byte, error) {
	n := len(formatMagic) + 2 + len(f.Label) + binary.MaxVarintLen64*(8+2*(len(f.Queues)+len(f.Barriers)+len(f.Threads)))
	for _, ops := range slices.Concat([][]Op{f.Sequential}, f.Threads) {
		for _, op := range ops {
			n += opLen(op)
		}
	}
	dst := append(make([]byte, 0, n), formatMagic...)
	flags := byte(0)
	if f.Sequential != nil {
		flags |= flagSequential
	}
	dst = append(dst, formatVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(len(f.Label)))
	dst = append(dst, f.Label...)
	dst = binary.AppendUvarint(dst, f.LockGrace)
	dst = binary.AppendUvarint(dst, f.BarrierGrace)
	dst = binary.AppendUvarint(dst, uint64(len(f.Queues)))
	for _, q := range f.Queues {
		dst = binary.AppendUvarint(dst, uint64(q.ID))
		dst = binary.AppendUvarint(dst, uint64(q.Cap))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Barriers)))
	for _, b := range f.Barriers {
		dst = binary.AppendUvarint(dst, uint64(b.ID))
		dst = binary.AppendUvarint(dst, uint64(b.Parties))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Threads)))
	var err error
	if f.Sequential != nil {
		if dst, err = appendSection(dst, f.Sequential); err != nil {
			return nil, fmt.Errorf("trace: sequential stream: %w", err)
		}
	}
	for t, ops := range f.Threads {
		if dst, err = appendSection(dst, ops); err != nil {
			return nil, fmt.Errorf("trace: thread %d stream: %w", t, err)
		}
	}
	return dst, nil
}

// errNoWork refuses a trace in which no thread op works (Op.works): its
// replay takes zero cycles, and no speedup stack divides by that.
var errNoWork = fmt.Errorf("trace: no thread stream holds work (an op besides %v and empty computes)", KindEnd)

// appendSection appends one op-stream section (count, byte length, ops).
// The ops are written behind room for the two lengths, which is closed up
// once they are known.
func appendSection(dst []byte, ops []Op) ([]byte, error) {
	if len(ops) == 0 || ops[len(ops)-1].Kind != KindEnd {
		return nil, fmt.Errorf("stream must end with %v", KindEnd)
	}
	start := len(dst)
	dst = append(dst, make([]byte, 2*binary.MaxVarintLen64)...)
	for i, op := range ops {
		if op.Kind > KindEnd {
			return nil, fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
		if op.Kind == KindEnd && i != len(ops)-1 {
			return nil, fmt.Errorf("op %d: %v before the end of the stream", i, KindEnd)
		}
		if op.Kind >= KindLock && op.Kind < KindEnd && op.ID > MaxSyncID { // a sync op
			return nil, fmt.Errorf("op %d: sync id %d exceeds %d", i, op.ID, MaxSyncID)
		}
		dst = appendOp(dst, op)
	}
	body := dst[start+2*binary.MaxVarintLen64:]
	head := binary.AppendUvarint(dst[start:start], uint64(len(ops)))
	head = binary.AppendUvarint(head, uint64(len(body)))
	return dst[:start+len(head)+copy(dst[start+len(head):], body)], nil
}

// defaultN is the implied N of a kind when the head byte carries no explicit
// count (the overwhelmingly common case, worth the flag bit).
func defaultN(k Kind) uint32 {
	if k == KindEnd {
		return 0
	}
	return 1
}

// appendOp appends one encoded op.
func appendOp(dst []byte, op Op) []byte {
	head := byte(op.Kind)
	hasN := op.Kind != KindCompute && op.N != defaultN(op.Kind)
	if hasN {
		head |= headHasN
	}
	if op.Overhead {
		head |= headOverhead
	}
	dst = append(dst, head)
	switch op.Kind {
	case KindCompute:
		dst = binary.AppendUvarint(dst, uint64(op.N))
	case KindLoad, KindStore:
		dst = binary.AppendUvarint(dst, op.Addr)
		dst = binary.AppendUvarint(dst, op.PC)
	case KindEnd:
	default: // sync ops: lock, unlock, barrier, push, pop, closeq
		dst = binary.AppendUvarint(dst, uint64(op.ID))
	}
	if hasN {
		dst = binary.AppendUvarint(dst, uint64(op.N))
	}
	return dst
}

// opLen is the length appendOp appends for op, counted without writing.
// It repeats appendOp's layout rather than sharing an operand table with
// it: the shared table made encoding a recorded trace ~40 % slower.
func opLen(op Op) int {
	n := 1 // the head byte
	switch op.Kind {
	case KindCompute:
		n += uvarintLen(uint64(op.N))
	case KindLoad, KindStore:
		n += uvarintLen(op.Addr) + uvarintLen(op.PC)
	case KindEnd:
	default:
		n += uvarintLen(uint64(op.ID))
	}
	if op.Kind != KindCompute && op.N != defaultN(op.Kind) {
		n += uvarintLen(uint64(op.N))
	}
	return n
}

// uvarintLen is the length binary.AppendUvarint appends for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Data is a decoded, fully validated trace: the replayable twin of File.
// The op streams stay in encoded form — ThreadProgram and SequentialProgram
// hand the simulator streaming readers that decode lazily — so holding a
// Data costs roughly the file size, not an []Op expansion. Each stream is a
// list of chunks, every one of them whole ops: a trace decoded in memory
// keeps one sub-slice of it per stream, one read from a reader keeps the
// chunks it read. Data is immutable after decoding and safe for concurrent
// use; every reader it creates has independent position state.
type Data struct {
	hdr      Header
	seq      [][]byte
	threads  [][][]byte
	totalOps uint64
	hash     [sha256.Size]byte
}

// Meta is the cheap header view of a trace: everything identity and routing
// need, parsed without validating the op sections. DecodeMeta produces it.
type Meta struct {
	Header
	// Threads is the recorded thread count.
	Threads int
	// HashHex is the lowercase-hex content hash (the replay identity).
	HashHex string
}

// decoder walks one chunk of a section body with bounds-checked varint
// reads; base is the chunk's offset in the body, which positioned errors
// report.
type decoder struct {
	buf  []byte
	pos  int
	base int
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or malformed varint (%s) at offset %d", what, d.base+d.pos)
	}
	d.pos += n
	return v, nil
}

// header parses magic through thread count and judges the header with
// check, returning the partially filled Data with s positioned at the first
// section and hashing from the byte after the label on. Shared by every
// decode and by DecodeMeta.
func header(s *source) (*Data, error) {
	s.fill(6)
	b := s.buf[s.pos:]
	if len(b) < 6 {
		return nil, fmt.Errorf("trace: %d bytes is shorter than the %d-byte header", len(b), 6)
	}
	if string(b[:4]) != formatMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", b[:4], formatMagic)
	}
	if b[4] != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (this build reads version %d)", b[4], formatVersion)
	}
	flags := b[5]
	if flags&^byte(flagSequential) != 0 {
		return nil, fmt.Errorf("trace: unknown flag bits %#x", flags&^byte(flagSequential))
	}
	s.consume(6)
	labelLen, err := s.uvarint("label length")
	if err != nil {
		return nil, err
	}
	// A label within its bound is kept; a longer one is only skipped, and
	// check refuses its length.
	t := &Data{}
	if labelLen <= MaxLabelLen {
		s.fill(int(labelLen))
		if b := s.buf[s.pos:]; len(b) >= int(labelLen) {
			t.hdr.Label = string(b[:labelLen])
		}
	}
	if got := s.skip(labelLen); got < labelLen {
		return nil, fmt.Errorf("trace: label length %d exceeds the %d bytes remaining", labelLen, got)
	}
	s.hash = sha256.New()
	s.hash.Write([]byte{formatVersion, flags})

	if t.hdr.LockGrace, err = s.uvarint("lock_grace"); err != nil {
		return nil, err
	}
	if t.hdr.BarrierGrace, err = s.uvarint("barrier_grace"); err != nil {
		return nil, err
	}
	t.hdr.Queues, err = decodeRegs(s, "queue", "capacity",
		func(id uint32, v int) QueueReg { return QueueReg{ID: id, Cap: v} })
	if err != nil {
		return nil, err
	}
	t.hdr.Barriers, err = decodeRegs(s, "barrier", "parties",
		func(id uint32, v int) BarrierReg { return BarrierReg{ID: id, Parties: v} })
	if err != nil {
		return nil, err
	}
	threads, err := s.uvarint("thread count")
	if err != nil {
		return nil, err
	}
	if err := t.hdr.check(saturatingInt(labelLen), saturatingInt(threads)); err != nil {
		return nil, err
	}
	t.threads = make([][][]byte, threads)
	if flags&flagSequential != 0 {
		t.seq = [][]byte{} // non-nil marks presence; filled by decode
	}
	return t, nil
}

// saturatingInt converts a decoded value to int, so a value past any bound
// Check judges stays past it on every platform.
func saturatingInt(v uint64) int { return int(min(v, math.MaxInt)) }

// decodeRegs reads one registration list: a count, then that many
// (id, value) pairs. kind and field name the list in positioned errors
// ("queue", "capacity"). Only the count is judged here, to bound the
// allocation; the values are Check's to judge.
func decodeRegs[R any](s *source, kind, field string, reg func(id uint32, v int) R) ([]R, error) {
	n, err := s.uvarint(kind + " count")
	if err != nil {
		return nil, err
	}
	// Each registration occupies at least two bytes, so a count past half
	// the bytes left is implausible. The count is held to the bytes left
	// only when a registration fails to decode (a list that decodes whole
	// has shown them), and the list is sized by the bytes that have
	// arrived, never by the count alone: when it is full it grows by the
	// registrations the buffered bytes can hold, or doubles, whichever is
	// more, up to the count. A list in memory is allocated once.
	implausible := func() error { return fmt.Errorf("trace: implausible %s count %d", kind, n) }
	if n > MaxRegs {
		return nil, implausible()
	}
	start := s.off
	idWhat, valWhat := kind+" id", kind+" "+field
	regs := make([]R, 0)
	for i := range n {
		id, err := s.uvarint(idWhat)
		var v uint64
		if err == nil {
			v, err = s.uvarint(valWhat)
		}
		if err == nil && id > 1<<32-1 {
			err = fmt.Errorf("trace: %s registration %d id %d overflows uint32", kind, i, id)
		}
		if err != nil {
			read := uint64(s.off - start) // before rest moves s.off
			if 2*n > read+s.rest() {
				return nil, implausible()
			}
			return nil, err
		}
		if len(regs) == cap(regs) {
			more := max(len(regs), 1+(len(s.buf)-s.pos)/2)
			regs = slices.Grow(regs, int(min(uint64(more), n-i)))
		}
		regs = append(regs, reg(uint32(id), saturatingInt(v)))
	}
	return regs, nil
}

// ReadError is DecodeFrom's error when reading the trace failed. It
// outranks any fault in the bytes that did arrive, as it would if the trace
// were read whole before it was decoded.
type ReadError struct{ Err error }

// Error returns the read error's text.
func (e *ReadError) Error() string { return e.Err.Error() }

// Unwrap returns the read error, so errors.Is and errors.As see through a
// ReadError to the reader's own error.
func (e *ReadError) Unwrap() error { return e.Err }

// Decode parses and fully validates a binary trace. Every op of every
// section is walked once, so hostile input — truncated buffers, corrupt
// varints, misplaced End ops, trailing garbage — fails here with a
// positioned error and the returned Data's streaming readers can never
// fail mid-simulation. A trace in which no thread op does work (every
// thread stream only End and empty Compute bursts) is refused too, before
// anything replays it. Decode never panics and copies nothing: the Data's
// streams are sub-slices of data.
func Decode(data []byte) (*Data, error) { return decode(inMemory(data)) }

// DecodeFrom reads a binary trace from r to its end and decodes it as
// Decode does, in the same single pass: the header through a small
// buffered front, each section body into chunks of at most 64 KiB that the
// Data keeps, the content hash fed as the bytes pass. Nothing is allocated
// from a length the trace declares, so a reader costs at most the bytes it
// sent, one chunk and the front, besides the registration lists, which
// hold 16 bytes for each registration's two or more. A failure to read r
// is a *ReadError.
func DecodeFrom(r io.Reader) (*Data, error) { return decode(fromReader(r, chunkSize)) }

// decode is the one decoder behind Decode and DecodeFrom: header, sections,
// the work rule, then the rest of the input, which must be empty. It always
// reads the input to its end, so a read error outranks a format error, as
// if the trace had been read whole first, and an error counting the bytes
// left can count them.
func decode(s *source) (*Data, error) {
	t, err := decodeSections(s)
	if n := s.rest(); err == nil && n != 0 {
		err = fmt.Errorf("trace: %d trailing bytes after the last stream", n)
	}
	if s.err != io.EOF {
		return nil, &ReadError{Err: s.err}
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// decodeSections decodes the header and every section, and judges the
// work rule.
func decodeSections(s *source) (*Data, error) {
	t, err := header(s)
	if err != nil {
		return nil, err
	}
	if t.seq != nil {
		if t.seq, err = decodeSection(s, &t.totalOps, new(bool)); err != nil {
			return nil, fmt.Errorf("trace: sequential stream: %w", err)
		}
	}
	work := false
	for i := range t.threads {
		if t.threads[i], err = decodeSection(s, &t.totalOps, &work); err != nil {
			return nil, fmt.Errorf("trace: thread %d stream: %w", i, err)
		}
	}
	if !work {
		return nil, errNoWork
	}
	s.hash.Sum(t.hash[:0])
	return t, nil
}

// DecodeMeta parses just the trace header — the Header, thread count and
// content hash — without validating the op sections. It is the cheap
// routing view: the fleet layer homes a multi-megabyte upload from its
// Meta alone, leaving full validation to the home node's service.
func DecodeMeta(data []byte) (Meta, error) {
	s := inMemory(data)
	t, err := header(s)
	if err != nil {
		return Meta{}, err
	}
	s.skip(math.MaxUint64) // the hash covers the sections too
	s.hash.Sum(t.hash[:0])
	return Meta{Header: t.hdr, Threads: len(t.threads), HashHex: t.HashHex()}, nil
}

// maxOpLen is the longest encoded op: a head byte and three varints (a
// load's address, pc and count).
const maxOpLen = 1 + 3*binary.MaxVarintLen64

// decodeSection validates one op-stream section and returns its body as
// the source hands it out, in chunks: each chunk is validated as it
// arrives, and an op that might straddle a chunk's end (fewer than
// maxOpLen bytes left in it while more are to come) is carried to the
// start of the next, so every chunk holds whole ops and every op is judged
// with as many bytes as the whole body would show it. totalOps accumulates
// the declared (and verified) op count, work whether any op works. A fault
// inside the body is reported only once the rest of the body has arrived,
// so a body shorter than its declared length is always that error.
func decodeSection(s *source, totalOps *uint64, work *bool) ([][]byte, error) {
	count, err := s.uvarint("op count")
	if err != nil {
		return nil, err
	}
	size, err := s.uvarint("byte length")
	if err != nil {
		return nil, err
	}
	var (
		chunks [][]byte
		carry  []byte
		base   int // the body offset carry starts at
		toCome = size
		i      uint64
		op     Op
		fail   error
	)
	if count == 0 {
		fail = fmt.Errorf("empty stream (must hold at least %v)", KindEnd)
	}
	for fail == nil {
		want := int(min(toCome, uint64(s.chunk-len(carry))))
		c := s.take(carry, want)
		if got := len(c) - len(carry); got < want {
			toCome -= uint64(got)
			break // the input ended inside the body
		}
		toCome -= uint64(want)
		last := toCome == 0
		d := decoder{buf: c, base: base}
		for i < count && (last || d.remaining() >= maxOpLen) {
			if err := decodeOp(&d, &op); err != nil {
				fail = fmt.Errorf("op %d: %w", i, err)
				break
			}
			if (op.Kind == KindEnd) != (i == count-1) {
				fail = fmt.Errorf("op %d: %v must be exactly the final op", i, KindEnd)
				break
			}
			*work = *work || op.works()
			i++
		}
		if fail == nil && i == count && (!last || d.remaining() != 0) {
			fail = fmt.Errorf("%d bytes beyond the declared %d ops", uint64(d.remaining())+toCome, count)
		}
		if fail == nil && last {
			*totalOps += count
			return append(chunks, c), nil
		}
		chunks = append(chunks, c[:d.pos])
		carry, base = c[d.pos:], base+d.pos
	}
	if toCome -= s.skip(toCome); toCome != 0 {
		return nil, fmt.Errorf("trace: stream length %d exceeds the %d bytes remaining", size, size-toCome)
	}
	return nil, fail
}

// decodeOp decodes the op at the decoder's position into op, writing every
// field (op is a reused ring slot). On error op's contents are unspecified.
func decodeOp(d *decoder, op *Op) error {
	if d.remaining() == 0 {
		return fmt.Errorf("truncated stream")
	}
	head := d.buf[d.pos]
	d.pos++
	if head&^byte(headKindMask|headHasN|headOverhead) != 0 {
		return fmt.Errorf("reserved head bits %#x set", head)
	}
	kind := Kind(head & headKindMask)
	if kind > KindEnd {
		return fmt.Errorf("unknown kind %d", kind)
	}
	op.Kind, op.N, op.Addr, op.PC, op.ID, op.Overhead = kind, defaultN(kind), 0, 0, 0, head&headOverhead != 0
	var err error
	switch kind {
	case KindCompute:
		if head&headHasN != 0 {
			return fmt.Errorf("compute carries its count unconditionally")
		}
		n, err := d.uvarint("compute count")
		if err != nil {
			return err
		}
		if n > 1<<32-1 {
			return fmt.Errorf("compute count %d overflows uint32", n)
		}
		op.N = uint32(n)
	case KindLoad, KindStore:
		if op.Addr, err = d.uvarint("address"); err != nil {
			return err
		}
		if op.PC, err = d.uvarint("pc"); err != nil {
			return err
		}
	case KindEnd:
	default:
		at := d.base + d.pos
		id, err := d.uvarint("sync id")
		if err != nil {
			return err
		}
		if id > MaxSyncID {
			return fmt.Errorf("sync id %d at offset %d exceeds %d", id, at, MaxSyncID)
		}
		op.ID = uint32(id)
	}
	if kind != KindCompute && head&headHasN != 0 {
		n, err := d.uvarint("op count")
		if err != nil {
			return err
		}
		if n > 1<<32-1 || n == uint64(defaultN(kind)) {
			return fmt.Errorf("non-canonical op count %d", n)
		}
		op.N = uint32(n)
	}
	return nil
}

// Header returns a copy of the recorded header, registrations included,
// so no caller can change the Data.
func (t *Data) Header() Header {
	h := t.hdr
	h.Queues, h.Barriers = slices.Clone(h.Queues), slices.Clone(h.Barriers)
	return h
}

// Threads returns the recorded thread count.
func (t *Data) Threads() int { return len(t.threads) }

// TotalOps returns the total recorded op count across every stream.
func (t *Data) TotalOps() uint64 { return t.totalOps }

// HashHex returns the lowercase-hex content hash: the trace's replay
// identity, stable under relabeling.
func (t *Data) HashHex() string { return hex.EncodeToString(t.hash[:]) }

// ThreadProgram returns a fresh streaming reader over thread i's recorded
// stream. Each call returns an independent program, so one Data replays any
// number of times.
func (t *Data) ThreadProgram(i int) Program { return &streamReader{chunks: t.threads[i]} }

// SequentialProgram returns a fresh streaming reader over the recorded
// single-threaded reference stream.
func (t *Data) SequentialProgram() (Program, error) {
	if t.seq == nil {
		return nil, fmt.Errorf("trace: no sequential stream was recorded (re-record with the sequential reference to measure a speedup stack)")
	}
	return &streamReader{chunks: t.seq}, nil
}

// streamReader replays one validated encoded section as a Program,
// decoding ops lazily and stepping to the next chunk when one runs out.
// Feedback is ignored — a recorded stream already took its branches — but
// batches still end immediately after every KindPop so the batch/feedback
// contract holds for any consumer counting on it.
type streamReader struct {
	d      decoder
	chunks [][]byte // the section's chunks after d's
	done   bool
}

// Next implements Program: the one-op batch.
func (r *streamReader) Next(fb Feedback) Op { return One(r, fb) }

// NextBatch implements Program: it fills dst until the batch boundary
// contract forces a cut — after a KindPop (fresh feedback only arrives at
// batch boundaries) or at KindEnd.
func (r *streamReader) NextBatch(dst []Op, _ Feedback) int {
	n := 0
	for n < len(dst) {
		op := &dst[n]
		n++
		if r.d.remaining() == 0 && len(r.chunks) > 0 {
			r.d, r.chunks = decoder{buf: r.chunks[0]}, r.chunks[1:]
		}
		// A decode error is unreachable for validated sections; fail closed
		// anyway by ending the stream.
		if r.done || decodeOp(&r.d, op) != nil {
			*op = End()
		}
		r.done = op.Kind == KindEnd
		if op.Kind == KindPop || r.done {
			break
		}
	}
	return n
}
