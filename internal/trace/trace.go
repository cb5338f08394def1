// Package trace defines the execution-driven operation-stream model that
// drives the CMP simulator.
//
// A thread's dynamic instruction stream is abstracted as a sequence of
// coarse-grained operations: computation bursts, individual memory
// references, and synchronization actions (locks, barriers, bounded task
// queues). Programs are *execution driven* rather than trace driven: the
// simulator pulls the next operation lazily and feeds back the outcome of
// blocking operations (e.g. whether a queue pop succeeded), so programs can
// react to runtime conditions such as pipeline shutdown.
//
// The granularity is deliberately coarser than one op per instruction:
// computation between memory references is folded into Compute bursts, which
// keeps simulation cost proportional to the number of *memory and
// synchronization events*, the quantities that determine every speedup-stack
// component in the paper.
package trace

import "fmt"

// Kind identifies the operation class.
type Kind uint8

// Operation kinds understood by the simulator.
const (
	// KindCompute executes N instructions of pure computation (no memory
	// system interaction beyond the L1-resident working set).
	KindCompute Kind = iota
	// KindLoad issues a data load to Addr. PC identifies the static load
	// site, which the Tian-style spin detector keys on.
	KindLoad
	// KindStore issues a data store to Addr.
	KindStore
	// KindLock acquires lock ID (test-and-test-and-set with spin-then-yield).
	KindLock
	// KindUnlock releases lock ID.
	KindUnlock
	// KindBarrier joins barrier ID (sense-reversing; spin-then-yield).
	KindBarrier
	// KindPush appends an item to bounded queue ID, blocking while full.
	KindPush
	// KindPop removes an item from bounded queue ID, blocking while empty.
	// If the queue is closed and drained, the op completes with Feedback
	// PopOK=false and the program is expected to wind down.
	KindPop
	// KindCloseQueue marks queue ID closed, releasing blocked poppers.
	KindCloseQueue
	// KindEnd terminates the thread. The final op of every program.
	KindEnd
)

// String returns a short mnemonic for the op kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindLock:
		return "lock"
	case KindUnlock:
		return "unlock"
	case KindBarrier:
		return "barrier"
	case KindPush:
		return "push"
	case KindPop:
		return "pop"
	case KindCloseQueue:
		return "closeq"
	case KindEnd:
		return "end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one coarse-grained operation of a thread's dynamic stream.
type Op struct {
	Kind Kind
	// N is the instruction count for KindCompute bursts. For memory ops it
	// is the number of instructions the reference represents (dispatch
	// slots); 1 if zero.
	N uint32
	// Addr is the byte address for KindLoad/KindStore.
	Addr uint64
	// PC is a synthetic static-instruction identifier for memory ops; the
	// spin detector distinguishes load sites by PC.
	PC uint64
	// ID names the lock, barrier, or queue for synchronization ops, and the
	// extra overhead tag (unused otherwise).
	ID uint32
	// Overhead marks instructions that exist only because of
	// parallelization (thread spawning, lock handling, recomputation). The
	// simulator's ground-truth accounting attributes them to the
	// parallelization-overhead component; the hardware estimator cannot see
	// this flag, exactly as in the paper (Section 3.5).
	Overhead bool
}

// works reports whether op costs its thread time: every op but End and an
// empty Compute burst does.
func (op Op) works() bool { return op.Kind != KindEnd && (op.Kind != KindCompute || op.N > 0) }

// Feedback carries the outcome of the previously executed blocking op back
// into the program at the next batch boundary.
type Feedback struct {
	// PopOK reports whether the last KindPop produced an item. False means
	// the queue was closed and drained.
	PopOK bool
}

// Program produces a thread's operation stream, and NextBatch is the one
// way the simulator pulls it: a program hands over whole chunks of its
// stream, paying one dynamic dispatch per chunk instead of one per
// operation. Implementations are typically small state machines. Next is
// the one-op batch, One.
//
// The batching contract:
//
//   - The stream is the same at every batch size: the concatenation of the
//     batches pulled with len(dst) == 1 equals the one pulled with any
//     larger dst. Batching is a transport optimization, never a semantic
//     one. In particular, adjacent Compute bursts must NOT be merged across
//     op boundaries — the core model rounds each burst to dispatch-width
//     cycle granularity (cpu.ComputeCycles), so merging two bursts is
//     timing-visible.
//   - NextBatch fills dst from the front and returns n, the number of ops
//     written, with 1 <= n <= len(dst) (callers pass len(dst) >= 1).
//   - fb carries the outcome of the last blocking op. A batch must end
//     immediately after any op whose outcome feeds back into the stream
//     (KindPop: the program branches on Feedback.PopOK), because fresh
//     feedback is only delivered at batch boundaries. Ops with no feedback
//     (locks, barriers, pushes) may be followed by more ops in the same
//     batch even though the simulator may block mid-batch; the buffered
//     tail stays valid across the wait.
//   - Programs must eventually emit KindEnd. After a batch containing
//     KindEnd, the program is not called again.
type Program interface {
	Next(fb Feedback) Op
	NextBatch(dst []Op, fb Feedback) int
}

// One is the one-op pull, NextBatch with len(dst) == 1: the body of every
// Program's Next.
func One(p Program, fb Feedback) Op {
	var one [1]Op
	p.NextBatch(one[:], fb)
	return one[0]
}

// BatchProgram is Program under its former name, kept for callers written
// against it.
type BatchProgram = Program

// SetCompute overwrites o with Compute(n). Like every in-place writer it
// sets every field, because o may be a reused ring slot holding a stale op.
// The per-access generators write through it: building an Op by value and
// copying it into the ring stalls on store forwarding.
func (o *Op) SetCompute(n uint32) {
	o.Kind, o.N, o.Addr, o.PC, o.ID, o.Overhead = KindCompute, n, 0, 0, 0, false
}

// SetAccess overwrites o with Store(addr, pc) if store is set, else with
// Load(addr, pc).
func (o *Op) SetAccess(store bool, addr, pc uint64) {
	kind := KindLoad
	if store {
		kind = KindStore
	}
	o.Kind, o.N, o.Addr, o.PC, o.ID, o.Overhead = kind, 1, addr, pc, 0, false
}

// Compute returns a computation burst of n instructions.
func Compute(n uint32) (o Op) {
	o.SetCompute(n)
	return o
}

// Load returns a load of addr from load-site pc.
func Load(addr, pc uint64) (o Op) {
	o.SetAccess(false, addr, pc)
	return o
}

// Store returns a store to addr from store-site pc.
func Store(addr, pc uint64) (o Op) {
	o.SetAccess(true, addr, pc)
	return o
}

// Lock returns a lock-acquire op for lock id.
func Lock(id uint32) Op { return Op{Kind: KindLock, N: 1, ID: id} }

// Unlock returns a lock-release op for lock id.
func Unlock(id uint32) Op { return Op{Kind: KindUnlock, N: 1, ID: id} }

// Barrier returns a barrier-join op for barrier id.
func Barrier(id uint32) Op { return Op{Kind: KindBarrier, N: 1, ID: id} }

// Push returns a queue-push op for queue id.
func Push(id uint32) Op { return Op{Kind: KindPush, N: 1, ID: id} }

// Pop returns a queue-pop op for queue id.
func Pop(id uint32) Op { return Op{Kind: KindPop, N: 1, ID: id} }

// CloseQueue returns a queue-close op for queue id.
func CloseQueue(id uint32) Op { return Op{Kind: KindCloseQueue, N: 1, ID: id} }

// End returns the terminal op.
func End() Op { return Op{Kind: KindEnd} }

// SliceProgram replays a fixed op slice. It is primarily useful in tests and
// microbenchmark workloads. The slice must end with KindEnd; if it does not,
// SliceProgram appends one implicitly.
type SliceProgram struct {
	ops []Op
	pos int
}

// NewSliceProgram returns a Program that replays ops in order.
func NewSliceProgram(ops []Op) *SliceProgram {
	if len(ops) == 0 || ops[len(ops)-1].Kind != KindEnd {
		ops = append(append([]Op(nil), ops...), End())
	}
	return &SliceProgram{ops: ops}
}

// Next implements Program: the one-op batch.
func (p *SliceProgram) Next(fb Feedback) Op { return One(p, fb) }

// NextBatch implements Program by copying the next chunk of the slice.
// SliceProgram ignores feedback entirely, so batches need not break at pops.
func (p *SliceProgram) NextBatch(dst []Op, _ Feedback) int {
	if p.pos >= len(p.ops) {
		dst[0] = End()
		return 1
	}
	n := copy(dst, p.ops[p.pos:])
	p.pos += n
	return n
}
