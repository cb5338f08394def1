package workload

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// pull drains up to limit ops of p and returns them with the number of pops
// seen. size 0 pulls through Next; size > 0 through NextBatch with len(dst)
// == size, failing the test when a batch breaks the trace.Program
// contract: 1 <= n <= len(dst), and a KindPop only as the last op of its
// batch. Pops are answered the way a queue that closes would: the first
// okPops with PopOK true, every later one with false — so the feedback
// delivered at a cut takes both values.
func pull(t *testing.T, p trace.Program, size, okPops, limit int) (ops []trace.Op, pops int) {
	t.Helper()
	buf := make([]trace.Op, max(size, 1))
	var fb trace.Feedback
	for len(ops) < limit {
		n := 1
		if size == 0 {
			buf[0] = p.Next(fb)
		} else if n = p.NextBatch(buf, fb); n < 1 || n > size {
			t.Fatalf("NextBatch returned %d for len(dst) %d", n, size)
		}
		for i, op := range buf[:n] {
			if op.Kind == trace.KindPop {
				if i != n-1 {
					t.Fatalf("batch of %d continues past the KindPop at %d", n, i)
				}
				pops++
				fb.PopOK = pops <= okPops
			}
		}
		ops = append(ops, buf[:n]...)
		if buf[n-1].Kind == trace.KindEnd {
			break
		}
	}
	return ops[:min(len(ops), limit)], pops
}

// TestBatchSizeInvariance enforces the batching contract (ARCHITECTURE.md,
// determinism contract 2) at the generators: for every registered analogue
// and contention pattern, sequentially and at 1, 3 and 16 threads, the
// stream pulled through Next and through NextBatch with len(dst) 1, 7 and
// 512 is the same op for op, whether the queues stay open or close after
// the third pop, and every batch ends right after a KindPop.
func TestBatchSizeInvariance(t *testing.T) {
	const limit = 20_000
	for _, b := range append(All(), Patterns()...) {
		t.Run(b.FullName(), func(t *testing.T) {
			t.Parallel()
			for _, threads := range []int{0, 1, 3, 16} {
				// programs builds a fresh set: a drained program cannot rewind.
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
					var want [][]trace.Op
					pops := 0
					for _, p := range programs() {
						ops, n := pull(t, p, 0, okPops, limit)
						want, pops = append(want, ops), pops+n
					}
					for _, size := range []int{1, 7, 512} {
						for tid, p := range programs() {
							got, _ := pull(t, p, size, okPops, limit)
							if err := diffOps(got, want[tid]); err != nil {
								t.Fatalf("%s x%d thread %d, len(dst) %d, %d ok pops: %v",
									b.FullName(), threads, tid, size, okPops, err)
							}
						}
					}
					if pops == 0 {
						break // no feedback to vary
					}
				}
			}
		})
	}
}

func diffOps(got, want []trace.Op) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ops, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("op %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
