package workload

import "repro/internal/trace"

// dpProgram generates the op stream of one thread of a data-parallel
// benchmark (or its sequential reference).
//
// Structure: Phases barrier-separated phases; in each phase the thread walks
// its slice of the global array SweepsPerPhase times, interleaving
// shared-region accesses, critical sections every CSEvery accesses, and
// parallelization-overhead bursts. The sweep loop is per slice, so a slice
// that fits a private LLC is reused both in the sequential reference and in
// the ATD's private counterfactual — keeping the estimator's assumptions
// aligned with the measured baseline, as in the paper's methodology.
type dpProgram struct {
	s   *Spec
	tid int
	seq bool // sequential reference: no sync, no overhead

	totalLines int
	shares     []float64

	// Walk state.
	phase     int
	rank      int // sequential mode walks rank after rank
	sweep     int
	line      int
	sliceOff  int
	sliceLen  int
	sharedPos uint64
	overhead  int // accumulated overhead instructions (x1000 fixed point)
	// overheadStep is what each access adds to overhead: 0 for the
	// sequential reference, constant per program otherwise.
	overheadStep int

	// csEvery is the precomputed critical-section cadence (0 = no critical
	// sections); csCycle mirrors csCounter % csEvery and pcCycle mirrors
	// csCounter % 13 of the division-based original, advanced by cheap
	// wrap-around increments on the per-access path.
	csEvery int
	csCycle int
	pcCycle int

	rng *trace.RNG
	opQueue
}

// nominalThreads is the machine width that critical-section cadence and the
// sequential reference's work shares are laid out for, so the reference
// executes identical body work; data volumes never depend on it.
const nominalThreads = 16

// csCadence returns how many accesses separate critical sections (0 when
// the spec emits none): CSPerThreadPerPhase per nominal thread-phase,
// spread evenly over the access stream.
func (s *Spec) csCadence(totalLines int) int {
	if s.CSPerThreadPerPhase <= 0 || s.CSInstr <= 0 {
		return 0
	}
	every := totalLines * s.SweepsPerPhase /
		(s.CSPerThreadPerPhase * nominalThreads)
	if every < 1 {
		every = 1
	}
	return every
}

// dataParallelPrograms builds one program per thread.
func (s Spec) dataParallelPrograms(threads int) []trace.Program {
	progs := make([]trace.Program, threads)
	spec := s
	totalLines := int(s.ArrayBytes / lineBytes)
	step := int(spec.overheadAt(threads) * 1000 * float64(spec.InstrPerAccess+1))
	for t := 0; t < threads; t++ {
		progs[t] = &dpProgram{
			s:            &spec,
			tid:          t,
			totalLines:   totalLines,
			shares:       workShares(threads, s.EffectiveParallelism),
			csEvery:      spec.csCadence(totalLines),
			overheadStep: step,
			rng:          trace.NewRNG(s.Seed ^ (uint64(t)+1)*0x9e3779b97f4a7c15),
		}
	}
	return progs
}

// dataParallelSequential builds the single-threaded reference.
func (s Spec) dataParallelSequential() trace.Program {
	spec := s
	totalLines := int(s.ArrayBytes / lineBytes)
	return &dpProgram{
		s:          &spec,
		tid:        0,
		seq:        true,
		totalLines: totalLines,
		shares:     workShares(nominalThreads, s.EffectiveParallelism),
		csEvery:    spec.csCadence(totalLines),
		rng:        trace.NewRNG(s.Seed ^ 0xABCDEF),
	}
}

// Next implements trace.Program: the one-op batch.
func (p *dpProgram) Next(fb trace.Feedback) trace.Op { return trace.One(p, fb) }

// dpMaxOpsPerAccess bounds what one emitAccessTo call can append: compute,
// the memory op, a three-op critical section, and an overhead burst.
const dpMaxOpsPerAccess = 6

// NextBatch implements trace.Program: opQueue.drain's loop plus a fast
// path that writes in-slice access runs directly into dst (no staging-queue
// copy) whenever dst has room for a whole access, so the queue only carries
// phase transitions and the tail of a batch. Either way the op sequence is
// the same. Data-parallel programs never pop, so a batch only ends when dst
// is full or the stream ends.
func (p *dpProgram) NextBatch(dst []trace.Op, _ trace.Feedback) int {
	n := 0
	for n < len(dst) {
		if p.qpos < len(p.queue) {
			c := copy(dst[n:], p.queue[p.qpos:])
			p.qpos += c
			n += c
			continue
		}
		if p.ended {
			break
		}
		if p.sliceLen != 0 && p.line < p.sliceLen && len(dst)-n >= dpMaxOpsPerAccess {
			// Fast path: emit the access straight into dst. The capacity
			// check guarantees the bounded appends stay in place.
			q := dst[n:n:len(dst)]
			p.emitAccessTo(&q)
			p.line++
			n += len(q)
			continue
		}
		p.queue = p.queue[:0]
		p.qpos = 0
		p.refill()
	}
	if n == 0 {
		dst[0] = trace.End()
		n = 1
	}
	return n
}

// refill appends the next access (or a phase transition) to the queue. It
// runs only where NextBatch's fast path cannot — at a slice boundary, or
// when dst has no room for a whole access — so one access per call keeps
// the queue within dpMaxOpsPerAccess ops and its backing array small.
func (p *dpProgram) refill() {
	if p.sliceLen == 0 && !p.enterSlice() {
		return
	}
	if p.line >= p.sliceLen {
		p.sweep++
		p.line = 0
		if p.sweep >= p.s.SweepsPerPhase {
			p.advanceSlice()
			return
		}
	}
	p.emitAccessTo(&p.queue)
	p.line++
}

// enterSlice computes the current slice bounds; it returns false when the
// program has ended (queue holds the trailing ops).
func (p *dpProgram) enterSlice() bool {
	if p.phase >= p.s.Phases {
		p.ended = true
		p.queue = append(p.queue, trace.End())
		return false
	}
	parts := splitInts(p.totalLines, p.shares)
	// Thread i always owns slice i, as in real data-parallel codes (the
	// skew is a property of the work division, and keeping slices pinned
	// preserves per-thread locality for the ATD's private counterfactual).
	rank := p.rank
	if !p.seq {
		rank = p.tid
	}
	off := 0
	for r := 0; r < rank; r++ {
		off += parts[r]
	}
	p.sliceOff = off
	p.sliceLen = parts[rank]
	p.sweep = 0
	p.line = 0
	if p.sliceLen == 0 {
		// Degenerate share: skip straight to the next slice/phase.
		p.advanceSlice()
		return false
	}
	return true
}

// advanceSlice moves to the next rank (sequential) or phase (parallel),
// emitting the phase barrier for parallel threads.
func (p *dpProgram) advanceSlice() {
	p.sliceLen = 0
	if p.seq {
		p.rank++
		if p.rank < len(p.shares) {
			return
		}
		p.rank = 0
		p.phase++
		return
	}
	p.queue = append(p.queue, trace.Barrier(uint32(p.phase)))
	p.phase++
}

// emitAccessTo appends one access to q: compute, the memory operation, and
// any due critical section or overhead burst — at most dpMaxOpsPerAccess
// ops.
func (p *dpProgram) emitAccessTo(q *[]trace.Op) {
	s := p.s
	if s.InstrPerAccess > 0 {
		slot(q).SetCompute(uint32(s.InstrPerAccess))
	}

	var addr uint64
	var store bool
	if s.SharedFrac > 0 && p.rng.Bool(s.SharedFrac) {
		sharedLines := uint64(s.SharedBytes / lineBytes)
		if s.RandomShared {
			addr = sharedBase + p.rng.Uint64n(sharedLines)*lineBytes
		} else {
			addr = sharedBase + (p.sharedPos%sharedLines)*lineBytes
			p.sharedPos++
		}
		store = p.rng.Bool(s.SharedStoreFrac)
	} else {
		line := p.sliceOff + p.line
		if s.RandomPrivate {
			line = p.sliceOff + p.rng.Intn(p.sliceLen)
		}
		addr = privateBase + uint64(line)*lineBytes
		store = p.rng.Bool(s.StoreFrac)
	}
	pc := 0x400000 + uint64(p.pcCycle)*4
	p.pcCycle++
	if p.pcCycle == 13 {
		p.pcCycle = 0
	}
	slot(q).SetAccess(store, addr, pc)

	// Critical sections at the precomputed cadence, spread evenly over the
	// access stream so the sequential reference executes the same body work
	// without locks.
	if p.csEvery > 0 {
		p.csCycle++
		if p.csCycle == p.csEvery {
			p.csCycle = 0
			lock := uint32(0)
			if s.NumLocks > 1 {
				lock = uint32(p.rng.Intn(s.NumLocks))
			}
			if p.seq {
				*q = append(*q, trace.Compute(uint32(s.CSInstr)))
			} else {
				*q = append(*q,
					trace.Lock(lock),
					trace.Compute(uint32(s.CSInstr)),
					trace.Unlock(lock))
			}
		}
	}

	// Parallelization overhead, accumulated in 1/1000 instruction units and
	// emitted in bursts so the op stream stays compact.
	if p.overheadStep > 0 {
		p.overhead += p.overheadStep
		if p.overhead >= 256_000 {
			burst := slot(q)
			burst.SetCompute(uint32(p.overhead / 1000))
			burst.Overhead = true
			p.overhead = 0
		}
	}
}
