package syncprim

import (
	"testing"
	"testing/quick"
)

func TestLockUncontended(t *testing.T) {
	l := NewLock()
	if !l.Acquire(3) {
		t.Fatal("free lock refused")
	}
	if l.owner != 3 {
		t.Fatalf("owner = %d", l.owner)
	}
	if next, transferred := l.Release(nil); transferred || next != -1 {
		t.Fatal("release with no waiters transferred")
	}
	if l.owner != -1 {
		t.Fatal("lock not freed")
	}
}

func TestLockFIFO(t *testing.T) {
	l := NewLock()
	acquisitions, contended := 0, 0
	for tid := 0; tid < 3; tid++ {
		if l.Acquire(tid) {
			acquisitions++
		} else {
			contended++
		}
	}
	if len(l.waiters) != 2 || contended != 2 {
		t.Fatalf("waiters=%d contended=%d", len(l.waiters), contended)
	}
	next, transferred := l.Release(nil)
	if !transferred || next != 1 {
		t.Fatalf("handoff to %d, want 1", next)
	}
	acquisitions++
	next, transferred = l.Release(nil)
	if !transferred || next != 2 {
		t.Fatalf("handoff to %d, want 2", next)
	}
	acquisitions++
	if acquisitions != 3 || l.owner != 2 {
		t.Fatalf("acquisitions = %d, owner = %d", acquisitions, l.owner)
	}
}

func TestLockBarging(t *testing.T) {
	l := NewLock()
	l.Acquire(0)
	l.Acquire(1) // will be "parked"
	l.Acquire(2) // still spinning
	parked := map[int]bool{1: true}
	next, _ := l.Release(func(tid int) bool { return !parked[tid] })
	if next != 2 {
		t.Fatalf("barging picked %d, want spinning waiter 2", next)
	}
	// With everyone parked, FIFO applies.
	l2 := NewLock()
	l2.Acquire(0)
	l2.Acquire(1)
	l2.Acquire(2)
	next, _ = l2.Release(func(int) bool { return false })
	if next != 1 {
		t.Fatalf("all-parked handoff to %d, want 1", next)
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLock().Release(nil)
}

func TestBarrier(t *testing.T) {
	b := NewBarrier(3)
	if _, last := b.Arrive(0); last {
		t.Fatal("first arrival released")
	}
	if _, last := b.Arrive(1); last {
		t.Fatal("second arrival released")
	}
	released, last := b.Arrive(2)
	if !last || len(released) != 2 {
		t.Fatalf("last arrival: last=%v released=%v", last, released)
	}
	// Sense reversal: one episode released everyone, reusable immediately.
	if len(b.waiters) != 0 || b.arrived != 0 {
		t.Fatalf("after release: waiting=%d arrived=%d", len(b.waiters), b.arrived)
	}
	if _, last := b.Arrive(0); last {
		t.Fatal("barrier not reset")
	}
	if len(b.waiters) != 1 {
		t.Fatalf("waiting = %d", len(b.waiters))
	}
}

func TestQueueBasicFlow(t *testing.T) {
	q := NewQueue(2)
	if granted, ok := q.Push(0, nil); !ok || granted != -1 {
		t.Fatal("push into empty queue failed")
	}
	if granted, ok, closed := q.Pop(1, nil); !ok || closed || granted != -1 {
		t.Fatal("pop of available item failed")
	}
	if q.items != 0 {
		t.Fatalf("items = %d", q.items)
	}
}

func TestQueueBlockingPopGrantedByPush(t *testing.T) {
	q := NewQueue(2)
	if _, ok, _ := q.Pop(5, nil); ok {
		t.Fatal("pop of empty queue succeeded")
	}
	granted, ok := q.Push(0, nil)
	if !ok || granted != 5 {
		t.Fatalf("push should grant blocked popper 5, got %d", granted)
	}
	if q.items != 0 {
		t.Fatal("direct handoff should not change occupancy")
	}
}

func TestQueueBlockingPushGrantedByPop(t *testing.T) {
	q := NewQueue(1)
	q.Push(0, nil)
	if _, ok := q.Push(1, nil); ok {
		t.Fatal("push into full queue succeeded")
	}
	granted, ok, _ := q.Pop(2, nil)
	if !ok || granted != 1 {
		t.Fatalf("pop should admit blocked pusher 1, got %d", granted)
	}
	if q.items != 1 {
		t.Fatalf("items = %d, want 1 (admitted push)", q.items)
	}
}

func TestQueueClose(t *testing.T) {
	q := NewQueue(2)
	q.Pop(7, nil) // blocks
	failed := q.Close()
	if len(failed) != 1 || failed[0] != 7 {
		t.Fatalf("close returned %v", failed)
	}
	if _, ok, closed := q.Pop(8, nil); ok || !closed {
		t.Fatal("pop on closed+empty queue must fail with closed=true")
	}
}

func TestQueueCloseDrainsRemaining(t *testing.T) {
	q := NewQueue(4)
	q.Push(0, nil)
	q.Push(0, nil)
	q.Close()
	// Remaining items still pop successfully.
	if _, ok, _ := q.Pop(1, nil); !ok {
		t.Fatal("pop of remaining item after close failed")
	}
	if _, ok, _ := q.Pop(1, nil); !ok {
		t.Fatal("pop of last item after close failed")
	}
	if _, ok, closed := q.Pop(1, nil); ok || !closed {
		t.Fatal("drained closed queue must report closed")
	}
}

func TestQueuePushClosedPanics(t *testing.T) {
	q := NewQueue(1)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Push(0, nil)
}

func TestQueueConservation(t *testing.T) {
	// Property: pops never exceed pushes; occupancy = pushes - pops, over the
	// successful operations counted here — a push handed straight to a
	// blocked popper is one of each, and so is a pop that admits a blocked
	// pusher's item.
	f := func(ops []bool) bool {
		q := NewQueue(4)
		pushes, pops := 0, 0
		for i, push := range ops {
			if push {
				if len(q.pushWaiters) == 0 { // avoid unbounded waiter lists
					if granted, ok := q.Push(i, nil); ok {
						pushes++
						if granted >= 0 {
							pops++
						}
					}
				}
			} else {
				if len(q.popWaiters) == 0 {
					if granted, ok, _ := q.Pop(i, nil); ok {
						pops++
						if granted >= 0 {
							pushes++
						}
					}
				}
			}
			if pops > pushes || q.items != pushes-pops {
				return false
			}
			if q.items < 0 || q.items > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
