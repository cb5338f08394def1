package workload

import "repro/internal/trace"

// opQueue is the staging queue every generator embeds: a refill appends the
// ops of the next stretch of the stream to queue, NextBatch drains them
// into the simulator's buffer. ended marks that the queue holds the
// stream's trailing ops (KindEnd last).
type opQueue struct {
	queue []trace.Op
	qpos  int
	ended bool
}

// slot extends q by one op and returns it for an in-place writer
// (trace.Op.SetCompute, SetAccess). The slot may hold a stale op from an
// earlier refill, which the writer overwrites field by field.
func slot(q *[]trace.Op) *trace.Op {
	n := len(*q)
	if n < cap(*q) {
		*q = (*q)[:n+1]
	} else {
		*q = append(*q, trace.Op{})
	}
	return &(*q)[n]
}

// drain is the shared trace.Program loop: it moves staged ops into
// dst, refilling the queue until dst is full or the stream ends, and
// answers a call past the end with a lone End op. cutAfterPop ends the
// batch right after a KindPop, as the contract on trace.Program
// demands of a generator that branches on pop feedback: the refill that
// reads the feedback then always runs first in the following batch, with
// the simulator's fresh value. The data-parallel generator adds a
// direct-into-dst fast path and keeps its own loop over the same queue.
func (q *opQueue) drain(dst []trace.Op, cutAfterPop bool, refill func()) int {
	n := 0
	for n < len(dst) {
		if q.qpos == len(q.queue) {
			if q.ended {
				break
			}
			q.queue, q.qpos = q.queue[:0], 0
			refill()
			continue
		}
		if !cutAfterPop {
			c := copy(dst[n:], q.queue[q.qpos:])
			q.qpos += c
			n += c
			continue
		}
		dst[n] = q.queue[q.qpos]
		q.qpos++
		n++
		if dst[n-1].Kind == trace.KindPop {
			return n
		}
	}
	if n == 0 {
		dst[0] = trace.End()
		n = 1
	}
	return n
}
