package workload

import (
	"repro/internal/sim"
	"repro/internal/syncprim"
	"repro/internal/trace"
)

// Pipeline topology: stages connected by bounded queues. Serial stages
// (ferret's input and output) run on exactly one thread; the remaining
// threads split across the parallel middle stages. When there are fewer
// threads than stages, adjacent stages merge. Items are unit-of-work tokens;
// their data regions are shared between stages, so consumers reuse lines
// producers touched (positive interference plus coherence traffic).

// pipelinePlan computes the effective stage list — the stages after
// thread-count-aware merging, weights normalized — and per-stage thread
// counts for a given thread count.
func pipelinePlan(stages []StageSpec, threads int) (eff []StageSpec, nStage []int) {
	s := len(stages)
	effCount := s
	if threads < s {
		effCount = threads
	}
	eff = make([]StageSpec, effCount)
	// Merge contiguous groups of the original stages into effCount groups
	// of near-equal length.
	for g := 0; g < effCount; g++ {
		lo := g * s / effCount
		hi := (g + 1) * s / effCount
		m := StageSpec{Serial: true}
		for i := lo; i < hi; i++ {
			m.Weight += stages[i].Weight
			if !stages[i].Serial {
				m.Serial = false
			}
		}
		eff[g] = m
	}
	// Normalize weights.
	total := 0.0
	for _, m := range eff {
		total += m.Weight
	}
	for i := range eff {
		eff[i].Weight /= total
	}
	// Thread assignment: serial stages get one thread; the rest go
	// round-robin over parallel stages (or over everything if all serial).
	nStage = make([]int, effCount)
	remaining := threads
	var parallel []int
	for i, m := range eff {
		if m.Serial && remaining > 0 {
			nStage[i] = 1
			remaining--
		}
		if !m.Serial {
			parallel = append(parallel, i)
		}
	}
	if len(parallel) == 0 {
		parallel = make([]int, effCount)
		for i := range parallel {
			parallel[i] = i
		}
	}
	for i := 0; remaining > 0; i++ {
		nStage[parallel[i%len(parallel)]]++
		remaining--
	}
	// Guarantee every stage has at least one thread (possible shortfall
	// when threads < number of serial stages is prevented by merging).
	for i := range nStage {
		if nStage[i] == 0 {
			nStage[i] = 1
		}
	}
	return eff, nStage
}

// stageOf maps a thread to its stage and rank within the stage.
func stageOf(nStage []int, tid int) (stage, rank int) {
	for s, n := range nStage {
		if tid < n {
			return s, tid
		}
		tid -= n
	}
	// Excess threads (defensive; assignment covers all by construction).
	return len(nStage) - 1, tid
}

// plProgram is one pipeline thread.
type plProgram struct {
	s       *Spec
	tid     int
	threads int

	eff    []StageSpec
	nStage []int
	stage  int
	rank   int
	closer bool // lowest-rank thread of the stage closes the next queue

	quota    int // producer item quota (stage 0 only)
	produced int
	localCnt int
	state    int
	overhead int

	rng *trace.RNG
	opQueue
}

// Pipeline program states.
const (
	plProduce  = iota // stage 0: make and push items
	plPop             // stages > 0: pop next item
	plBody            // stages > 0: process popped item
	plConverge        // producers/middles: stage barrier then close
	plDone
)

// pipelinePrograms builds one program per thread.
func (s Spec) pipelinePrograms(threads int) []trace.Program {
	eff, nStage := pipelinePlan(s.Stages, threads)
	progs := make([]trace.Program, threads)
	spec := s
	for t := 0; t < threads; t++ {
		stage, rank := stageOf(nStage, t)
		p := &plProgram{
			s:       &spec,
			tid:     t,
			threads: threads,
			eff:     eff,
			nStage:  nStage,
			stage:   stage,
			rank:    rank,
			closer:  rank == 0,
			rng:     trace.NewRNG(s.Seed ^ (uint64(t)+31)*0x9e3779b97f4a7c15),
		}
		if stage == 0 {
			p.quota = s.Items / nStage[0]
			if rank == 0 {
				p.quota += s.Items % nStage[0]
			}
			p.state = plProduce
		} else {
			p.state = plPop
		}
		progs[t] = p
	}
	return progs
}

// registrations returns the machine registrations (queue capacities and
// barrier widths) a run at the given thread count needs. Pipelines derive
// them from the stage plan; trace replays carry them in the trace file;
// the other families register nothing (their barriers are machine-default).
func (s Spec) registrations(threads int) ([]trace.QueueReg, []trace.BarrierReg) {
	switch s.Kind {
	case KindPipeline:
		eff, nStage := pipelinePlan(s.Stages, threads)
		cap := s.QueueCap
		if cap <= 0 {
			cap = syncprim.DefaultQueueCap
		}
		queues := make([]trace.QueueReg, 0, len(eff)-1)
		for q := 0; q < len(eff)-1; q++ {
			queues = append(queues, trace.QueueReg{ID: uint32(q), Cap: cap})
		}
		barriers := make([]trace.BarrierReg, 0, len(eff))
		for st := 0; st < len(eff); st++ {
			barriers = append(barriers, trace.BarrierReg{ID: uint32(2000 + st), Parties: nStage[st]})
		}
		return queues, barriers
	case KindTrace:
		if s.traceData == nil {
			return nil, nil
		}
		h := s.traceData.Header()
		return h.Queues, h.Barriers
	}
	return nil, nil
}

// PipelineOptions returns the machine registrations a run needs as simulator
// options (queue capacities and per-stage barrier widths for pipelines, the
// recorded registrations for trace replays).
func (s Spec) PipelineOptions(threads int) []sim.Option {
	queues, barriers := s.registrations(threads)
	if len(queues)+len(barriers) == 0 {
		return nil
	}
	opts := make([]sim.Option, 0, len(queues)+len(barriers))
	for _, q := range queues {
		opts = append(opts, sim.WithQueue(q.ID, q.Cap))
	}
	for _, b := range barriers {
		opts = append(opts, sim.WithBarrier(b.ID, b.Parties))
	}
	return opts
}

// pipelineSequential builds the single-threaded reference: every item
// processed end-to-end, no queues.
func (s Spec) pipelineSequential() trace.Program {
	spec := s
	return &plSeqProgram{
		s:   &spec,
		rng: trace.NewRNG(s.Seed ^ 0x77FF11),
	}
}

// Next implements trace.Program: the one-op batch.
func (p *plProgram) Next(fb trace.Feedback) trace.Op { return trace.One(p, fb) }

// NextBatch implements trace.Program. Pipeline programs branch on pop
// feedback (plBody reads Feedback.PopOK), so a batch ends immediately after
// every KindPop: the plBody refill then always runs as the first refill of
// the following batch, with the simulator's fresh feedback.
func (p *plProgram) NextBatch(dst []trace.Op, fb trace.Feedback) int {
	return p.drain(dst, true, func() { p.refill(fb) })
}

func (p *plProgram) refill(fb trace.Feedback) {
	switch p.state {
	case plProduce:
		if p.produced >= p.quota {
			p.state = plConverge
			p.queue = append(p.queue, trace.Barrier(uint32(2000+p.stage)))
			return
		}
		p.emitBody()
		if len(p.eff) > 1 {
			p.queue = append(p.queue, trace.Push(uint32(p.stage)))
		}
		p.produced++

	case plPop:
		p.queue = append(p.queue, trace.Pop(uint32(p.stage-1)))
		p.state = plBody

	case plBody:
		if !fb.PopOK {
			if p.stage == len(p.eff)-1 {
				p.finish()
				return
			}
			p.state = plConverge
			p.queue = append(p.queue, trace.Barrier(uint32(2000+p.stage)))
			return
		}
		p.emitBody()
		if p.stage < len(p.eff)-1 {
			p.queue = append(p.queue, trace.Push(uint32(p.stage)))
		}
		p.state = plPop

	case plConverge:
		if p.closer && p.stage < len(p.eff)-1 {
			p.queue = append(p.queue, trace.CloseQueue(uint32(p.stage)))
		}
		p.finish()
	}
}

func (p *plProgram) finish() {
	p.state = plDone
	p.queue = append(p.queue, trace.End())
	p.ended = true
}

// emitBody appends the stage's per-item work: weighted compute and accesses
// over the item's shared data region.
func (p *plProgram) emitBody() {
	s := p.s
	w := p.eff[p.stage].Weight
	instr := int(float64(s.ItemInstr) * w)
	accesses := int(float64(s.ItemAccesses)*w + 0.5)
	item := p.localCnt*p.nStage[p.stage] + p.rank
	p.localCnt++
	emitItemWork(&p.queue, p.rng, s, item, instr, accesses)
	if s.overheadAt(p.threads) > 0 {
		p.overhead += int(s.overheadAt(p.threads) * 1000 * float64(instr))
		if p.overhead >= 64_000 {
			burst := trace.Compute(uint32(p.overhead / 1000))
			burst.Overhead = true
			p.queue = append(p.queue, burst)
			p.overhead = 0
		}
	}
}

// emitItemWork appends compute and memory ops for one item's processing.
// Item regions wrap around ArrayBytes, so successive stages touch the same
// lines (producer-consumer sharing).
func emitItemWork(queue *[]trace.Op, rng *trace.RNG, s *Spec, item, instr, accesses int) {
	if accesses <= 0 {
		if instr > 0 {
			slot(queue).SetCompute(uint32(instr))
		}
		return
	}
	chunk := instr / accesses
	totalLines := max(1, int(s.ArrayBytes/lineBytes))
	itemLines := max(1, totalLines/max(1, s.QueueCap*8))
	base := (item * itemLines) % totalLines
	for a := 0; a < accesses; a++ {
		if chunk > 0 {
			slot(queue).SetCompute(uint32(chunk))
		}
		pc := 0x420000 + uint64(a%5)*4
		var addr uint64
		if s.SharedFrac > 0 && rng.Bool(s.SharedFrac) {
			sharedLines := uint64(s.SharedBytes / lineBytes)
			addr = sharedBase + rng.Uint64n(sharedLines)*lineBytes
		} else {
			addr = privateBase + uint64((base+a%itemLines)%totalLines)*lineBytes
		}
		slot(queue).SetAccess(rng.Bool(s.StoreFrac), addr, pc)
	}
}

// plSeqProgram is the sequential pipeline reference.
type plSeqProgram struct {
	s    *Spec
	item int

	rng *trace.RNG
	opQueue
}

// Next implements trace.Program: the one-op batch.
func (p *plSeqProgram) Next(fb trace.Feedback) trace.Op { return trace.One(p, fb) }

// refill appends the next item's end-to-end work (all stages back to back)
// or the terminal op.
func (p *plSeqProgram) refill() {
	if p.item >= p.s.Items {
		p.queue = append(p.queue, trace.End())
		p.ended = true
		return
	}
	emitItemWork(&p.queue, p.rng, p.s, p.item, p.s.ItemInstr, p.s.ItemAccesses)
	p.item++
}

// NextBatch implements trace.Program; the sequential reference never
// pops, so batches only end when dst is full or the stream ends.
func (p *plSeqProgram) NextBatch(dst []trace.Op, _ trace.Feedback) int {
	return p.drain(dst, false, p.refill)
}
