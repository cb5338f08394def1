package workload

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// ringOps is the simulator's per-thread ring capacity.
const ringOps = 512

// poison is an op no writer emits: every field is non-zero, N, Addr, PC and
// ID are odd, and Overhead is set. A writer that leaves any field of its
// destination unset lets poison through.
var poison = trace.Op{
	Kind: trace.KindCloseQueue, N: 0x7fff_ffff, Addr: 0xdead_beef_0000_0001,
	PC: 0xbad_c0de_0001, ID: 0x5555_5555, Overhead: true,
}

// staged is promoted to every generator that embeds opQueue, so the test
// reaches the staging queue without naming each generator type.
func (q *opQueue) staged() *opQueue { return q }

func fillPoison(ops []trace.Op) {
	for i := range ops {
		ops[i] = poison
	}
}

// pullRing drains up to limit ops of p through one reused ring of ringOps,
// the way the simulator pulls a thread. Pops are answered as in pull: the
// first okPops with PopOK true, every later one with false. With poisoned
// set, the ring and every dead slot of the program's staging queue are
// overwritten with poison before each batch; otherwise the ring starts
// zeroed and keeps whatever the previous batch left in it.
func pullRing(p trace.Program, poisoned bool, okPops, limit int) []trace.Op {
	ring := make([]trace.Op, ringOps)
	var fb trace.Feedback
	var ops []trace.Op
	pops := 0
	for len(ops) < limit {
		if poisoned {
			fillPoison(ring)
			if s, ok := p.(interface{ staged() *opQueue }); ok {
				q := s.staged()
				fillPoison(q.queue[:q.qpos])
				fillPoison(q.queue[len(q.queue):cap(q.queue)])
			}
		}
		n := p.NextBatch(ring, fb)
		for _, op := range ring[:n] {
			if op.Kind == trace.KindPop {
				pops++
				fb.PopOK = pops <= okPops
			}
		}
		ops = append(ops, ring[:n]...)
		if ring[n-1].Kind == trace.KindEnd {
			break
		}
	}
	return ops[:min(len(ops), limit)]
}

// TestOpWritersOverwriteStaleRing holds every op writer to writing every
// field of its destination: the simulator reuses each thread's ring, and
// the generators reuse their staging queues, so a field a writer skips
// keeps a stale op's value. For every analogue and contention pattern,
// sequentially and at 1, 4 and 16 threads, and for a trace of the 4-thread
// and sequential streams replayed through trace.Decode, the stream pulled
// into a zeroed ring equals the one pulled into a poisoned ring.
func TestOpWritersOverwriteStaleRing(t *testing.T) {
	const limit = 20_000
	for _, b := range append(All(), Patterns()...) {
		t.Run(b.FullName(), func(t *testing.T) {
			t.Parallel()
			var traced [][]trace.Op // sequential first, then the 4-thread streams
			for _, threads := range []int{0, 1, 4, 16} {
				programs := func() []trace.Program {
					if threads == 0 {
						p, err := b.Spec.Sequential()
						if err != nil {
							t.Fatalf("%s: %v", b.FullName(), err)
						}
						return []trace.Program{p}
					}
					progs, err := b.Spec.Parallel(threads)
					if err != nil {
						t.Fatalf("%s x%d: %v", b.FullName(), threads, err)
					}
					return progs
				}
				for _, okPops := range []int{limit, 3} {
					zeroed := programs()
					pops := 0
					for tid, p := range programs() {
						want := pullRing(zeroed[tid], false, okPops, limit)
						if err := diffOps(pullRing(p, true, okPops, limit), want); err != nil {
							t.Fatalf("%s x%d thread %d, %d ok pops: poisoned ring: %v",
								b.FullName(), threads, tid, okPops, err)
						}
						for _, op := range want {
							if op.Kind == trace.KindPop {
								pops++
							}
						}
						if okPops == limit && (threads == 0 || threads == 4) {
							traced = append(traced, want)
						}
					}
					if pops == 0 {
						break // no feedback to vary
					}
				}
			}

			f := &trace.File{Sequential: ended(traced[0]), Threads: make([][]trace.Op, len(traced)-1)}
			for i := range f.Threads {
				f.Threads[i] = ended(traced[i+1])
			}
			var buf bytes.Buffer
			if err := f.Encode(&buf); err != nil {
				t.Fatalf("%s: Encode: %v", b.FullName(), err)
			}
			d, err := trace.Decode(buf.Bytes())
			if err != nil {
				t.Fatalf("%s: Decode: %v", b.FullName(), err)
			}
			replay := func(i int) trace.Program {
				if i > 0 {
					return d.ThreadProgram(i - 1)
				}
				p, err := d.SequentialProgram()
				if err != nil {
					t.Fatalf("%s: %v", b.FullName(), err)
				}
				return p
			}
			for i, stream := range traced {
				for _, poisoned := range []bool{false, true} {
					got := pullRing(replay(i), poisoned, limit, limit+1)
					if err := diffOps(got, ended(stream)); err != nil {
						t.Fatalf("%s: replay of stream %d (0 = sequential), poisoned %v: %v",
							b.FullName(), i, poisoned, err)
					}
				}
			}
		})
	}
}

// ended returns ops cut to end with its first KindEnd, or with one appended
// when the pull stopped at its limit first: the shape a trace section takes.
func ended(ops []trace.Op) []trace.Op {
	for i, op := range ops {
		if op.Kind == trace.KindEnd {
			return ops[:i+1]
		}
	}
	return append(ops[:len(ops):len(ops)], trace.End())
}
