package sim

import (
	"fmt"

	"repro/internal/atd"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/sched"
	"repro/internal/syncprim"
	"repro/internal/trace"
)

// waitKind identifies what a waiting thread is waiting on.
type waitKind uint8

const (
	waitLock waitKind = iota
	waitBarrier
	waitQueuePop
	waitQueuePush
)

// thread is the runtime state of one software thread; its scheduling state
// is m.os.State's alone.
type thread struct {
	id int
	// prog is the thread's program; ring buffers the current chunk
	// (ring[rpos:rlen] is unconsumed). Buffered ops stay valid across
	// blocking waits: feedback-sensitive programs end batches after the
	// feedback-producing op (the trace.Program contract).
	prog trace.Program
	ring []trace.Op
	rpos int
	rlen int
	fb   trace.Feedback

	// time is the thread's local execution cursor in cycles.
	time uint64

	// The sync wait; an ungranted waiter parks at waitStart + grace(kind).
	waiting    bool
	kind       waitKind
	waitStart  uint64
	granted    bool
	grantAt    uint64 // effective grant time (before handoff/wake latency)
	grantPopOK bool   // result for queue-pop grants

	ct core.ThreadCounters
}

// Machine is one simulated CMP executing a set of software threads.
type Machine struct {
	cfg Config

	clock uint64
	hier  cache.Hierarchy
	memc  mem.Controller
	atds  []atd.Directory // per core, monitoring 1 in 2^ATDSampleShift sets
	os    *sched.OS

	// Synchronization primitives, indexed directly by id. Workload
	// generators use small dense id spaces (locks 0..NumLocks, pipeline
	// queues/barriers per stage, one barrier per phase), so a grow-on-use
	// slice holds exactly as many slots as the map it replaced held
	// entries, while the per-op lookup is one bounds check instead of a
	// hash. A table past syncTableCap is dropped by reset rather than
	// kept for the next run.
	locks    []*syncprim.Lock
	barriers []*syncprim.Barrier
	queues   []*syncprim.Queue

	threads    []thread
	coreIdleAt []uint64
	finished   int

	// coreAt is what Run polls each quantum, one word per core: the time of
	// the core's running thread, or coreIdle. Only runCore(c) moves core
	// c's thread or its time, and Run stores its return here; the one
	// change made from another core, grantWaiter parking a spinning
	// waiter, marks that core idle itself.
	coreAt []uint64

	// acct enables the interference-accounting hardware (the per-core
	// ATDs). It never affects timing — the directories only feed counters
	// — so runs whose accounting nobody reads (sequential references,
	// which contribute only Tp) skip the tag-directory walks entirely.
	acct bool

	// Fast-mode state (Config.Mode == ModeFast, fast.go): the detailed LLC
	// sets are the ones the ATDs sample (atd.Directory.SampledSet), and
	// fastCores holds the per-core extrapolation accumulators.
	fast      bool
	fastCores []fastCore

	// quantum is the effective relaxed-synchronization quantum of the
	// current run: cfg.Quantum, scaled in fast mode, or the whole horizon
	// for the single-threaded single-core shape. Set by Run.
	quantum uint64

	// ops counts executed trace operations (Result.TotalOps).
	ops uint64

	// Interval accounting (see intervals.go): when snapEvery is non-zero
	// the machine snapshots the cumulative per-thread counters into snaps
	// every snapEvery committed ops; nextSnap is the next boundary.
	// Snapshots never affect timing.
	snapEvery uint64
	nextSnap  uint64
	snaps     []core.IntervalSnapshot
}

// batchSize is the per-thread op ring capacity for batching programs.
const batchSize = 512

// syncTableCap bounds, in entries (64 KiB of pointers), each sync table a
// machine keeps across runs. A sync id sizes its table, and every run of
// every shape shares the pooled machines, so a table a large id grew would
// otherwise stay retained and be cleared by every later run.
const syncTableCap = 8 << 10

// grow extends s so that id is a valid index.
func grow[T any](s []T, id uint32) []T {
	if int(id) < len(s) {
		return s
	}
	return append(s, make([]T, int(id)+1-len(s))...)
}

// emptied returns the sync table s emptied for the next run: cleared and
// truncated, or dropped when its capacity is past syncTableCap.
func emptied[T any](s []*T) []*T {
	if cap(s) > syncTableCap {
		return nil
	}
	clear(s)
	return s[:0]
}

// NewMachine builds a machine executing one program per software thread.
// len(progs) may exceed cfg.Cores (the OS time-slices, Figure 7) but must be
// at least 1. It is reset on an empty machine, so "as new" and "as reset"
// are the same code.
func NewMachine(cfg Config, progs []trace.Program) (*Machine, error) {
	m := new(Machine)
	if err := m.reset(cfg, progs); err != nil {
		return nil, err
	}
	return m, nil
}

// reset puts the machine in its just-constructed state for cfg and a new
// set of thread programs, whatever configuration it last ran: every piece
// of storage cfg sizes — the cache hierarchy, the controller, the tag
// directories, the per-core and per-thread slices — takes cfg's geometry
// and reuses its backing array when the capacity is enough, clearing only
// the part in use. NewMachine is reset on an empty machine, so a recycled
// machine is a new one by construction: simulation results are a
// deterministic function of (config, programs) either way (the pool
// determinism and cross-shape tests and the experiments golden test pin
// this).
func (m *Machine) reset(cfg Config, progs []trace.Program) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(progs) == 0 {
		return fmt.Errorf("sim: no thread programs")
	}
	m.cfg = cfg
	m.fast = cfg.Mode == ModeFast

	m.clock, m.finished, m.ops = 0, 0, 0
	m.acct = true
	m.snapEvery, m.nextSnap, m.snaps = 0, 0, nil
	m.hier.Reset(cfg.Cores, cfg.L1, cfg.LLC)
	m.memc.Reset(cfg.Mem, cfg.Cores)
	m.atds = reuse.Grown(m.atds, cfg.Cores)
	for c := range m.atds {
		m.atds[c].Reset(cfg.atdConfig())
	}
	m.coreAt = reuse.Zeroed(m.coreAt, cfg.Cores)
	m.coreIdleAt = reuse.Zeroed(m.coreIdleAt, cfg.Cores)
	m.fastCores = reuse.Zeroed(m.fastCores, cfg.Cores)
	m.os = sched.New(cfg.Cores, len(progs))
	m.locks, m.barriers, m.queues = emptied(m.locks), emptied(m.barriers), emptied(m.queues)
	m.threads = reuse.Grown(m.threads, len(progs))
	for i, p := range progs {
		t := &m.threads[i]
		ring := t.ring
		if ring == nil {
			ring = make([]trace.Op, batchSize)
		}
		*t = thread{id: i, prog: p, ring: ring}
	}
	return nil
}

// lock returns (creating if needed) the lock with the given id.
func (m *Machine) lock(id uint32) *syncprim.Lock {
	m.locks = grow(m.locks, id)
	l := m.locks[id]
	if l == nil {
		l = syncprim.NewLock()
		m.locks[id] = l
	}
	return l
}

// barrier returns the barrier with the given id, created on first use with
// as many parties as there are software threads.
func (m *Machine) barrier(id uint32) *syncprim.Barrier {
	m.barriers = grow(m.barriers, id)
	b := m.barriers[id]
	if b == nil {
		b = syncprim.NewBarrier(len(m.threads))
		m.barriers[id] = b
	}
	return b
}

// queue returns the queue with the given id, created on first use with
// syncprim.DefaultQueueCap; workloads can size queues via WithQueue.
func (m *Machine) queue(id uint32) *syncprim.Queue {
	m.queues = grow(m.queues, id)
	q := m.queues[id]
	if q == nil {
		q = syncprim.NewQueue(syncprim.DefaultQueueCap)
		m.queues[id] = q
	}
	return q
}

// coreIdle is coreAt's mark for a core with no running thread.
const coreIdle = ^uint64(0)

// Run executes the machine to completion and returns the result.
func (m *Machine) Run() (Result, error) {
	quantum := m.cfg.Quantum
	if m.fast {
		quantum *= fastQuantumScale
	}
	if len(m.threads) == 1 && m.cfg.Cores == 1 {
		// One thread on one core — the sequential reference shape — has no
		// other actor contending for any shared resource, so the relaxed
		// synchronization quantum bounds nothing: boundaries are
		// unobservable and the run can execute as a single quantum, up to
		// the stepped loop's horizon. Timing is identical op for op; only
		// the per-quantum loop overhead goes.
		quantum = m.cfg.horizon()
	}
	m.quantum = quantum
	for c := range m.coreAt {
		m.coreAt[c] = coreIdle
		if tid := m.os.Running(c); tid >= 0 {
			m.coreAt[c] = m.threads[tid].time
		}
	}
	for m.finished < len(m.threads) {
		// A stalled scheduler with a thread unfinished is a deadlock: no
		// quantum up to MaxCycles could run anything, so the run fails now
		// with the error it would end in.
		if m.clock >= m.cfg.MaxCycles || m.os.Stalled() {
			return Result{}, fmt.Errorf("sim: exceeded MaxCycles=%d with %d/%d threads finished",
				m.cfg.MaxCycles, m.finished, len(m.threads))
		}
		qEnd := m.clock + quantum
		for c, at := range m.coreAt {
			// Skip, without the call, a core whose thread has already
			// executed past this quantum boundary and an idle core with
			// nothing to schedule: runCore would return at once.
			if at >= qEnd && (at != coreIdle || !m.os.HasReady()) {
				continue
			}
			m.coreAt[c] = m.runCore(c, qEnd)
		}
		m.clock = qEnd
	}
	return m.result(), nil
}

// runCore advances core c until the quantum boundary and returns the
// core's coreAt word: its running thread's time, or coreIdle.
func (m *Machine) runCore(c int, qEnd uint64) uint64 {
	for {
		tid := m.os.Running(c)
		if tid < 0 {
			// Idle core: try to pull a ready thread.
			if !m.os.HasReady() {
				return coreIdle
			}
			now := m.coreIdleAt[c]
			if now < qEnd-m.quantum {
				now = qEnd - m.quantum
			}
			if now >= qEnd {
				return coreIdle
			}
			ntid, startAt := m.os.Schedule(c, now)
			if ntid < 0 {
				return coreIdle
			}
			t := &m.threads[ntid]
			if startAt > t.time {
				t.time = startAt
			}
			if t.waiting {
				// Woken from a parked synchronization wait.
				m.finishWait(t, t.time, true)
			}
			continue
		}

		t := &m.threads[tid]
		if t.time >= qEnd {
			return t.time
		}

		if t.waiting {
			if t.granted {
				resume := t.grantAt + syncprim.HandoffCycles
				if resume > qEnd {
					return t.time
				}
				if resume > t.time {
					t.time = resume
				}
				m.finishWait(t, t.time, false)
				continue
			}
			// Still waiting: park once the spin grace period expires.
			parkAt := t.waitStart + m.grace(t.kind)
			if parkAt < qEnd {
				m.os.Block(t.id)
				m.coreIdleAt[c] = parkAt
				continue
			}
			return t.time // spinning through the rest of the quantum
		}

		if m.os.Preempt(c, t.time) {
			m.coreIdleAt[c] = t.time
			continue
		}

		m.execOps(t, c, qEnd) // the next iteration sees where it stopped
	}
}

// execOps executes thread t's operations on core c until the quantum ends,
// the thread begins a wait, or it finishes. Ops are pulled from the
// thread's batch ring: one NextBatch call per chunk instead of one
// interface call per op.
func (m *Machine) execOps(t *thread, c int, qEnd uint64) {
	for t.time < qEnd {
		if t.rpos == t.rlen {
			t.rlen, t.rpos = t.prog.NextBatch(t.ring, t.fb), 0
			// Ops are counted at batch granularity; programs end their
			// stream with KindEnd inside a batch, so on completed runs
			// every counted op executes.
			m.ops += uint64(t.rlen)
			if m.snapEvery != 0 && m.ops >= m.nextSnap {
				m.snapshot()
			}
		}
		// Ops are read through a pointer into the ring to avoid copying the
		// Op struct per operation.
		op := &t.ring[t.rpos]
		t.rpos++
		switch op.Kind {
		case trace.KindCompute:
			t.time += cpu.ComputeCycles(uint64(op.N))
			if op.Overhead {
				t.ct.OverheadInstrs += uint64(op.N)
			}

		case trace.KindLoad, trace.KindStore:
			if op.Overhead {
				t.ct.OverheadInstrs += uint64(op.N)
			}
			m.memAccess(t, c, op)

		case trace.KindLock:
			t.time += syncprim.AcquireCycles
			if m.lock(op.ID).Acquire(t.id) {
				break
			}
			m.beginWait(t, waitLock)
			return

		case trace.KindUnlock:
			t.time += syncprim.AcquireCycles
			if next, transferred := m.lock(op.ID).Release(m.spinning); transferred {
				m.grantWaiter(&m.threads[next], t.time, true)
			}

		case trace.KindBarrier:
			t.time += syncprim.AcquireCycles
			released, last := m.barrier(op.ID).Arrive(t.id)
			if last {
				for _, w := range released {
					m.grantWaiter(&m.threads[w], t.time, true)
				}
				break
			}
			m.beginWait(t, waitBarrier)
			return

		case trace.KindPush:
			t.time += syncprim.QueueOpCycles
			granted, ok := m.queue(op.ID).Push(t.id, m.spinning)
			if ok {
				if granted >= 0 {
					m.grantWaiter(&m.threads[granted], t.time, true)
				}
				break
			}
			m.beginWait(t, waitQueuePush)
			return

		case trace.KindPop:
			t.time += syncprim.QueueOpCycles
			granted, ok, closed := m.queue(op.ID).Pop(t.id, m.spinning)
			if ok {
				t.fb.PopOK = true
				if granted >= 0 {
					m.grantWaiter(&m.threads[granted], t.time, true)
				}
				break
			}
			if closed {
				t.fb.PopOK = false
				break
			}
			m.beginWait(t, waitQueuePop)
			return

		case trace.KindCloseQueue:
			t.time += syncprim.QueueOpCycles
			for _, w := range m.queue(op.ID).Close() {
				m.grantWaiter(&m.threads[w], t.time, false)
			}

		case trace.KindEnd:
			t.ct.FinishTime = t.time
			m.os.Finish(t.id)
			m.coreIdleAt[c] = t.time
			m.finished++
			return

		default:
			panic(fmt.Sprintf("sim: unknown op kind %v", op.Kind))
		}
	}
}

// spinning reports whether waiter tid is still on its core (not parked);
// used as the barging preference for lock and queue handoffs.
func (m *Machine) spinning(tid int) bool {
	return m.os.State(tid) == sched.StateRunning
}

// beginWait records that t started a blocking wait at its current time.
func (m *Machine) beginWait(t *thread, k waitKind) {
	t.waiting = true
	t.kind = k
	t.waitStart = t.time
	t.granted = false
	t.grantPopOK = true
}

// grantWaiter delivers a grant (lock ownership, barrier release, queue item
// or close notification) to waiting thread w at time g.
func (m *Machine) grantWaiter(w *thread, g uint64, popOK bool) {
	if !w.waiting || w.granted {
		panic(fmt.Sprintf("sim: grant to thread %d in unexpected state", w.id))
	}
	if g < w.waitStart {
		// Bounded quantum skew can deliver a grant "before" the wait began;
		// clamp so durations stay non-negative.
		g = w.waitStart
	}
	w.granted = true
	w.grantAt = g
	w.grantPopOK = popOK
	if m.os.State(w.id) == sched.StateBlocked {
		m.os.Wake(w.id, g)
		return
	}
	if g > w.waitStart+m.grace(w.kind) {
		// The waiter logically parked before the grant but the engine had
		// not materialized the park yet (it happens lazily at quantum
		// granularity). Park and wake to keep OS bookkeeping exact.
		// coreIdleAt stays stale (runCore's park sets it), so a ready thread
		// may start on the core before the park time; the gap is within the
		// skew bound, and setting it here moves the golden outputs.
		m.coreAt[m.os.Block(w.id)] = coreIdle
		m.os.Wake(w.id, g)
	}
}

// grace returns the spin-then-yield threshold for a wait kind.
func (m *Machine) grace(k waitKind) uint64 {
	switch k {
	case waitLock:
		return m.cfg.Policy.LockSpinGrace
	case waitBarrier:
		return m.cfg.Policy.BarrierSpinGrace
	default:
		return syncprim.QueueSpinGrace
	}
}

// finishWait finalizes accounting when thread t resumes at time resume from
// a wait that parked (at waitStart + grace) or not.
func (m *Machine) finishWait(t *thread, resume uint64, parked bool) {
	grace := m.grace(t.kind)

	spinEnd := resume
	if parked {
		spinEnd = t.waitStart + grace
		if resume > spinEnd {
			t.ct.YieldCycles += resume - spinEnd
		}
	}
	if spinEnd > t.waitStart {
		spinDur := spinEnd - t.waitStart
		if spinDur > grace+syncprim.HandoffCycles {
			spinDur = grace + syncprim.HandoffCycles
		}
		t.ct.OracleSpinCycles += spinDur
		t.ct.SpinDetected += m.cfg.Spin.Detected(spinDur, syncprim.SpinIterationCycles)
	}

	if t.kind == waitQueuePop {
		t.fb.PopOK = t.grantPopOK
	}
	t.waiting = false
}
