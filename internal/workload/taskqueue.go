package workload

import "repro/internal/trace"

// tqProgram generates the op stream of one thread of a task-queue benchmark:
// items are dispensed under a global lock (the dispatch critical section),
// then processed independently. The dispatch hold time throttles effective
// parallelism; whether waiters spin or yield is the lock library's policy
// (cholesky's SPLASH-2 locks spin, freqmine's pthread mutexes park).
type tqProgram struct {
	s   *Spec
	tid int
	seq bool

	itemStart int
	itemCount int
	done      int

	// Per-item walk state.
	inItem   bool
	access   int
	overhead int
	// overheadStep is what each item adds to overhead: 0 for the
	// sequential reference, constant per program otherwise.
	overheadStep int

	rng *trace.RNG
	opQueue
}

// taskQueuePrograms builds one program per thread. Items are distributed
// with the benchmark's skew so speedup saturates near
// EffectiveParallelism even before lock contention.
func (s Spec) taskQueuePrograms(threads int) []trace.Program {
	shares := workShares(threads, s.EffectiveParallelism)
	parts := splitInts(s.Items, shares)
	progs := make([]trace.Program, threads)
	spec := s
	step := int(spec.overheadAt(threads) * 1000 * float64(spec.ItemInstr))
	start := 0
	for t := 0; t < threads; t++ {
		progs[t] = &tqProgram{
			s:            &spec,
			tid:          t,
			itemStart:    start,
			itemCount:    parts[t],
			overheadStep: step,
			rng:          trace.NewRNG(s.Seed ^ (uint64(t)+11)*0x9e3779b97f4a7c15),
		}
		start += parts[t]
	}
	return progs
}

// taskQueueSequential builds the single-threaded reference: all items, no
// dispatch lock, no overhead.
func (s Spec) taskQueueSequential() trace.Program {
	spec := s
	return &tqProgram{
		s:         &spec,
		tid:       0,
		seq:       true,
		itemStart: 0,
		itemCount: s.Items,
		rng:       trace.NewRNG(s.Seed ^ 0x51723),
	}
}

// Next implements trace.Program: the one-op batch.
func (p *tqProgram) Next(fb trace.Feedback) trace.Op { return trace.One(p, fb) }

// NextBatch implements trace.Program: it drains whole refills into
// dst. Task-queue programs never pop, so a batch only ends when dst is full
// or the stream ends.
func (p *tqProgram) NextBatch(dst []trace.Op, _ trace.Feedback) int {
	return p.drain(dst, false, p.refill)
}

func (p *tqProgram) refill() {
	s := p.s
	if p.done >= p.itemCount {
		if !p.seq {
			// Converge on the final barrier so residual skew is classified
			// as synchronization, as the paper does for barrier imbalance.
			p.queue = append(p.queue, trace.Barrier(90))
		}
		p.queue = append(p.queue, trace.End())
		p.ended = true
		return
	}
	if !p.inItem {
		// Dispatch: grab the global task lock; the dispatch bookkeeping is
		// parallelization overhead (it does not exist sequentially).
		if !p.seq && s.DispatchInstr > 0 {
			dispatch := trace.Compute(uint32(s.DispatchInstr))
			dispatch.Overhead = true
			p.queue = append(p.queue,
				trace.Lock(0), dispatch, trace.Unlock(0))
		}
		// Critical-section work on shared structures: real work (the
		// sequential version computes it without a lock), serialized over
		// NumLocks locks — the update of shared factor panels in cholesky.
		if s.CSInstr > 0 {
			if p.seq {
				p.queue = append(p.queue, trace.Compute(uint32(s.CSInstr)))
			} else {
				lock := uint32(1)
				if s.NumLocks > 1 {
					lock = 1 + uint32(p.rng.Intn(s.NumLocks))
				}
				p.queue = append(p.queue,
					trace.Lock(lock),
					trace.Compute(uint32(s.CSInstr)),
					trace.Unlock(lock))
			}
		}
		p.inItem = true
		p.access = 0
		if s.ItemAccesses == 0 {
			p.queue = append(p.queue, trace.Compute(uint32(s.ItemInstr)))
			p.finishItem()
			return
		}
		return
	}

	// Item body: ItemInstr compute interleaved with ItemAccesses accesses,
	// emitted as a bounded run per refill (identical op stream, one refill
	// dispatch per run).
	chunk := s.ItemInstr / max(1, s.ItemAccesses)
	item := p.itemStart + p.done
	n := s.ItemAccesses - p.access
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		if chunk > 0 {
			slot(&p.queue).SetCompute(uint32(chunk))
		}
		p.itemAccess(slot(&p.queue), item, p.access)
		p.access++
	}
	if p.access >= s.ItemAccesses {
		p.finishItem()
	}
}

// itemAccess writes the access-th memory reference of the given item into
// op. Private references reuse one of 16 fixed blocks of the array,
// selected by the item's position (item groups own blocks, independent of
// the thread count, so the sequential reference touches identical data with
// identical locality). The intra-block reuse is what a private LLC would
// retain — shared-LLC thrashing of it is negative interference.
func (p *tqProgram) itemAccess(op *trace.Op, item, access int) {
	s := p.s
	pc := 0x410000 + uint64(access%7)*4
	if s.SharedFrac > 0 && p.rng.Bool(s.SharedFrac) {
		sharedLines := uint64(s.SharedBytes / lineBytes)
		addr := sharedBase + p.rng.Uint64n(sharedLines)*lineBytes
		op.SetAccess(p.rng.Bool(s.SharedStoreFrac), addr, pc)
		return
	}
	const blocks = 16
	totalLines := max(blocks, int(s.ArrayBytes/lineBytes))
	blockLines := totalLines / blocks
	group := item * blocks / max(1, s.Items)
	line := group*blockLines + (item*s.ItemAccesses+access)%blockLines
	addr := privateBase + uint64(line)*lineBytes
	op.SetAccess(p.rng.Bool(s.StoreFrac), addr, pc)
}

func (p *tqProgram) finishItem() {
	p.inItem = false
	p.done++
	if p.overheadStep > 0 {
		p.overhead += p.overheadStep
		if p.overhead >= 64_000 {
			burst := trace.Compute(uint32(p.overhead / 1000))
			burst.Overhead = true
			p.queue = append(p.queue, burst)
			p.overhead = 0
		}
	}
}
