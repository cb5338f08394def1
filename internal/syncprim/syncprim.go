// Package syncprim implements the synchronization substrate the simulated
// workloads run on: test-and-test-and-set spin locks with FIFO handoff,
// sense-reversing barriers, and bounded task queues for pipeline workloads.
//
// The primitives are pure state machines over thread IDs: *when* waits start
// and end, and how waiting time splits into spinning versus yielding, is
// decided by the simulator's engine using the costs below and the
// spin-then-yield policy in Policy. Keeping the state machines timing-free
// makes them independently testable and mirrors the real division of labor
// between a synchronization library and the hardware it runs on.
package syncprim

// The synchronization library's fixed costs. The paper evaluates one
// library, so only the spin-then-yield thresholds a workload tunes (Policy)
// vary.
const (
	// AcquireCycles is the cost of an uncontended atomic acquire/release
	// (the lock-handling instructions; parallelization overhead per the
	// paper's Section 3.5).
	AcquireCycles uint64 = 40
	// HandoffCycles is the cache-line-transfer delay between a release and
	// a spinning waiter's successful acquire.
	HandoffCycles uint64 = 60
	// QueueSpinGrace is the spin-then-yield threshold on queue push/pop.
	QueueSpinGrace uint64 = 150
	// SpinIterationCycles is the spin-loop body length, which sets the load
	// cadence the Tian detector observes.
	SpinIterationCycles uint64 = 12
	// QueueOpCycles is the cost of a queue push/pop critical section.
	QueueOpCycles uint64 = 48
)

// Policy captures the synchronization library's back-off model: how long a
// waiter spins before the library parks it (futex wait). Waits shorter than
// the grace period are pure spinning; longer waits spin for the grace period
// and yield for the rest. Grace periods are per primitive kind because real
// libraries differ: SPLASH-2's PARMACS locks spin (nearly) indefinitely
// while its barriers park on condition variables; PARSEC's pthread mutexes
// are adaptive with short spin phases. This distinction is what separates
// spin-dominant from yield-dominant benchmarks in the paper's Figure 6.
type Policy struct {
	// LockSpinGrace is the spin-then-yield threshold at locks.
	LockSpinGrace uint64
	// BarrierSpinGrace is the spin-then-yield threshold at barriers.
	BarrierSpinGrace uint64
}

// DefaultPolicy returns a policy modeled on an adaptive pthread library:
// brief spinning, then futex parking.
func DefaultPolicy() Policy {
	return Policy{LockSpinGrace: 6_000, BarrierSpinGrace: 4_000}
}

// Lock is a FIFO spin-then-yield mutex. Owner transfer happens at release
// time: the head waiter becomes the owner immediately (the engine applies
// handoff or wake latency before the thread resumes).
type Lock struct {
	owner   int
	waiters []int
}

// NewLock returns an unlocked Lock.
func NewLock() *Lock { return &Lock{owner: -1} }

// Acquire attempts to take the lock for tid. It returns true on immediate
// success; otherwise tid is appended to the FIFO wait queue.
func (l *Lock) Acquire(tid int) bool {
	if l.owner < 0 {
		l.owner = tid
		return true
	}
	l.waiters = append(l.waiters, tid)
	return false
}

// Release releases the lock held by the current owner and transfers it to
// a waiter, if any. prefer selects which waiters are eligible to barge:
// among the FIFO queue, the first waiter satisfying prefer wins; if none
// does (or prefer is nil), strict FIFO applies. Real spin-then-park mutexes
// behave this way: a still-spinning waiter grabs the lock ahead of parked
// ones, avoiding the wake-up convoy. It returns the new owner and whether a
// transfer happened.
func (l *Lock) Release(prefer func(tid int) bool) (next int, transferred bool) {
	if l.owner < 0 {
		panic("syncprim: Release of unheld lock")
	}
	if len(l.waiters) == 0 {
		l.owner = -1
		return -1, false
	}
	idx := pickWaiter(l.waiters, prefer)
	next = l.waiters[idx]
	l.waiters = append(l.waiters[:idx], l.waiters[idx+1:]...)
	l.owner = next
	return next, true
}

// pickWaiter returns the index of the first waiter satisfying prefer, or 0.
func pickWaiter(waiters []int, prefer func(tid int) bool) int {
	if prefer != nil {
		for i, w := range waiters {
			if prefer(w) {
				return i
			}
		}
	}
	return 0
}

// Barrier is a sense-reversing barrier over a fixed number of parties.
type Barrier struct {
	parties int
	arrived int
	waiters []int
}

// NewBarrier returns a barrier for parties threads.
func NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("syncprim: barrier parties must be positive")
	}
	return &Barrier{parties: parties}
}

// Arrive registers tid at the barrier. If tid is the last party, it returns
// (released, true) where released are the previously waiting threads (tid
// itself is not included and proceeds immediately). Otherwise tid joins the
// wait set and (nil, false) is returned.
//
// The released slice aliases the barrier's internal wait buffer and is only
// valid until the next Arrive call: consume it before re-entering the
// barrier. Reusing the buffer keeps barrier episodes allocation-free, which
// matters for the simulator's zero-allocations-per-op steady state.
func (b *Barrier) Arrive(tid int) (released []int, last bool) {
	b.arrived++
	if b.arrived == b.parties {
		released = b.waiters
		b.waiters = b.waiters[:0]
		b.arrived = 0
		return released, true
	}
	b.waiters = append(b.waiters, tid)
	return nil, false
}

// Queue is a bounded FIFO task queue with blocking push/pop, the substrate
// for pipeline workloads (ferret, dedup analogues). Item payloads are not
// modeled — only occupancy and waiter bookkeeping.
type Queue struct {
	capacity int
	items    int
	closed   bool

	pushWaiters []int
	popWaiters  []int
}

// DefaultQueueCap is the capacity of a queue nobody sized: one the machine
// creates on first use, and a pipeline's stage queues when its spec leaves
// QueueCap at zero.
const DefaultQueueCap = 16

// NewQueue returns a queue holding at most capacity items.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic("syncprim: queue capacity must be positive")
	}
	return &Queue{capacity: capacity}
}

// Push inserts an item for tid. Outcomes:
//   - granted >= 0: the item was handed directly to blocked popper granted
//     (occupancy unchanged), and the push succeeded.
//   - ok=true, granted=-1: the item was enqueued.
//   - ok=false: the queue is full; tid joined the push-waiter queue.
//
// Pushing to a closed queue panics: workload generators control shutdown.
// prefer selects which blocked popper to hand the item to (see
// Lock.Release).
func (q *Queue) Push(tid int, prefer func(tid int) bool) (granted int, ok bool) {
	if q.closed {
		panic("syncprim: Push on closed queue")
	}
	if len(q.popWaiters) > 0 {
		idx := pickWaiter(q.popWaiters, prefer)
		granted = q.popWaiters[idx]
		q.popWaiters = append(q.popWaiters[:idx], q.popWaiters[idx+1:]...)
		return granted, true
	}
	if q.items < q.capacity {
		q.items++
		return -1, true
	}
	q.pushWaiters = append(q.pushWaiters, tid)
	return -1, false
}

// Pop removes an item for tid. Outcomes:
//   - ok=true, granted>=0: an item was taken and blocked pusher granted's
//     item slot was admitted (wake the pusher).
//   - ok=true, granted=-1: an item was taken.
//   - ok=false, closed=true: queue closed and drained; the pop fails
//     permanently.
//   - ok=false, closed=false: queue empty; tid joined the pop-waiter queue.
func (q *Queue) Pop(tid int, prefer func(tid int) bool) (granted int, ok, closed bool) {
	if q.items > 0 {
		q.items--
		if len(q.pushWaiters) > 0 {
			idx := pickWaiter(q.pushWaiters, prefer)
			granted = q.pushWaiters[idx]
			q.pushWaiters = append(q.pushWaiters[:idx], q.pushWaiters[idx+1:]...)
			q.items++
			return granted, true, false
		}
		return -1, true, false
	}
	if q.closed {
		return -1, false, true
	}
	q.popWaiters = append(q.popWaiters, tid)
	return -1, false, false
}

// Close marks the queue closed and returns the poppers that must be woken
// with a failed pop. Blocked pushers are impossible on a closed queue by
// construction (producers close only after their last push completed).
func (q *Queue) Close() (failedPoppers []int) {
	q.closed = true
	failed := q.popWaiters
	q.popWaiters = nil
	return failed
}
