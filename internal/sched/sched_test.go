package sched

import (
	"reflect"
	"testing"
)

func TestInitialPlacement(t *testing.T) {
	o := New(4, 6)
	for c := 0; c < 4; c++ {
		if o.Running(c) != c {
			t.Fatalf("core %d runs %d, want %d", c, o.Running(c), c)
		}
	}
	if len(o.readyQ) != 2 {
		t.Fatalf("ready = %d, want 2", len(o.readyQ))
	}
	if o.State(4) != StateReady || o.State(0) != StateRunning {
		t.Fatal("unexpected initial states")
	}
}

func TestBlockWakeSchedule(t *testing.T) {
	o := New(2, 2)
	o.Block(0)
	if o.Running(0) != -1 || o.State(0) != StateBlocked {
		t.Fatal("block did not free the core")
	}
	o.Wake(0, 5000)
	if o.State(0) != StateReady {
		t.Fatal("wake did not ready the thread")
	}
	tid, startAt := o.Schedule(0, 6000)
	if tid != 0 {
		t.Fatalf("scheduled %d, want 0", tid)
	}
	wantStart := uint64(5000) + WakeLatencyCycles
	if wantStart < 6000 {
		wantStart = 6000
	}
	wantStart += CtxSwitchCycles + DecisionCyclesPerCore*2
	if startAt != wantStart {
		t.Fatalf("startAt = %d, want %d", startAt, wantStart)
	}
}

func TestScheduleAffinity(t *testing.T) {
	// With no never-placed threads in the queue, a woken thread returns to
	// the core it last ran on (wake affinity keeps caches and the per-core
	// accounting hardware warm).
	o := New(2, 2)
	o.Block(0)
	o.Block(1)
	o.Wake(1, 200) // queue order: [1]
	o.Wake(0, 250) // queue order: [1, 0]
	tid, _ := o.Schedule(0, 10_000)
	if tid != 0 {
		t.Fatalf("affinity violated: core 0 got thread %d, want 0", tid)
	}
	tid, _ = o.Schedule(1, 10_000)
	if tid != 1 {
		t.Fatalf("core 1 got thread %d, want 1", tid)
	}
}

func TestScheduleFreshBeatsAffinity(t *testing.T) {
	// Never-placed threads are picked ahead of affine ones so preempted
	// threads cannot starve newcomers.
	o := New(1, 3)
	o.Preempt(0, TimeSliceCycles) // thread 0 requeued behind fresh threads 1, 2
	tid, _ := o.Schedule(0, TimeSliceCycles)
	if tid != 1 {
		t.Fatalf("core 0 got thread %d, want fresh thread 1", tid)
	}
}

func TestScheduleFreshThreadPreferred(t *testing.T) {
	o := New(1, 3)
	// Threads 1,2 never ran (lastCore -1). Core 0 blocks thread 0.
	o.Block(0)
	tid, _ := o.Schedule(0, 200)
	if tid != 1 {
		t.Fatalf("scheduled %d, want fresh thread 1", tid)
	}
}

func TestMigrationCost(t *testing.T) {
	o := New(2, 2)
	o.Block(0) // frees core 0
	o.Block(1) // frees core 1
	o.Wake(0, 100)
	o.Wake(1, 100)
	// Schedule thread 0 onto core 1: a migration.
	// Affinity first picks thread 1 for core 1 (lastCore match), so drain
	// it, then thread 0 lands on core 1.
	tid, _ := o.Schedule(1, 50_000)
	if tid != 1 {
		t.Fatalf("expected affine thread 1 first, got %d", tid)
	}
	tid, startAt := o.Schedule(0, 50_000)
	if tid != 0 {
		t.Fatalf("expected thread 0, got %d", tid)
	}
	base := uint64(50_000) + CtxSwitchCycles + DecisionCyclesPerCore*2
	if startAt != base {
		t.Fatalf("no-migration start = %d, want %d", startAt, base)
	}
	// Now force a cross-core resume.
	o.Block(0)
	o.Wake(0, 60_000)
	o.Block(1) // frees core 1
	tid, startAt = o.Schedule(1, 70_000)
	if tid != 0 {
		t.Fatalf("expected thread 0 on core 1, got %d", tid)
	}
	if startAt != 70_000+CtxSwitchCycles+DecisionCyclesPerCore*2+MigrationCycles {
		t.Fatalf("migration start = %d", startAt)
	}
}

func TestPreemptAndSliceExpiry(t *testing.T) {
	// With nobody ready, a used-up slice does not preempt.
	alone := New(1, 1)
	if alone.Preempt(0, 10*TimeSliceCycles) || alone.Running(0) != 0 {
		t.Fatal("preempted with no ready thread")
	}
	o := New(1, 2)
	if o.Preempt(0, TimeSliceCycles-1) || o.Running(0) != 0 {
		t.Fatal("slice expired early")
	}
	if !o.Preempt(0, TimeSliceCycles) {
		t.Fatal("slice did not expire")
	}
	if o.Running(0) != -1 || o.State(0) != StateReady {
		t.Fatal("preempt did not requeue the thread")
	}
	if o.Preempt(0, 2*TimeSliceCycles) {
		t.Fatal("preempted an idle core")
	}
	tid, _ := o.Schedule(0, TimeSliceCycles)
	if tid != 1 {
		t.Fatalf("next thread = %d, want 1 (fresh)", tid)
	}
}

func TestFinish(t *testing.T) {
	o := New(1, 1)
	o.Finish(0)
	if o.State(0) != StateFinished || o.Running(0) != -1 {
		t.Fatal("finish did not clear state")
	}
	if tid, _ := o.Schedule(0, 2000); tid != -1 {
		t.Fatalf("scheduled finished thread %d", tid)
	}
}

func TestReadyWaitAccounting(t *testing.T) {
	o := New(1, 2) // thread 1 starts ready
	o.Block(0)
	// Thread 1 was ready from t=0, so it starts when the core is offered
	// at 9000, plus the switch and decision costs; the machine charges the
	// wait up to then as yielding.
	tid, startAt := o.Schedule(0, 9000)
	if want := 9000 + CtxSwitchCycles + DecisionCyclesPerCore; tid != 1 || startAt != want {
		t.Fatalf("Schedule = thread %d at %d, want thread 1 at %d", tid, startAt, want)
	}
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateBlocked.String() != "blocked" ||
		StateReady.String() != "ready" || StateFinished.String() != "finished" {
		t.Fatal("state strings wrong")
	}
}

// TestStateTransitions walks every transition the simulator makes and
// reads the result through State, and holds the three guarded calls to
// their panics: Block and Finish of a thread that is not running, and Wake
// of a thread that is not blocked.
func TestStateTransitions(t *testing.T) {
	type step struct {
		do   func(o *OS)
		want ThreadState // thread 0's state after do
	}
	block := func(o *OS) { o.Block(0) }
	wake := func(o *OS) { o.Wake(0, 0) }
	finish := func(o *OS) { o.Finish(0) }
	// The never-placed thread 1 takes the core first and runs to its end.
	schedule := func(o *OS) {
		if tid, _ := o.Schedule(0, 0); tid == 1 {
			o.Finish(1)
			o.Schedule(0, 0)
		}
	}
	preempt := func(o *OS) { o.Preempt(0, TimeSliceCycles) }
	for _, tc := range []struct {
		name  string
		steps []step
		panic func(o *OS) // nil: every step is legal
	}{
		{"park and resume", []step{{block, StateBlocked}, {wake, StateReady}, {schedule, StateRunning}}, nil},
		{"slice and resume", []step{{preempt, StateReady}, {schedule, StateRunning}}, nil},
		{"finish", []step{{finish, StateFinished}}, nil},
		{"block blocked", []step{{block, StateBlocked}}, block},
		{"block ready", []step{{preempt, StateReady}}, block},
		{"block finished", []step{{finish, StateFinished}}, block},
		{"wake running", nil, wake},
		{"wake ready", []step{{block, StateBlocked}, {wake, StateReady}}, wake},
		{"wake finished", []step{{finish, StateFinished}}, wake},
		{"finish blocked", []step{{block, StateBlocked}}, finish},
		{"finish ready", []step{{preempt, StateReady}}, finish},
		{"finish finished", []step{{finish, StateFinished}}, finish},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One core, and a second thread always ready so the slice rule
			// can preempt thread 0.
			o := New(1, 2)
			if o.State(0) != StateRunning {
				t.Fatalf("initial state %v, want running", o.State(0))
			}
			for i, s := range tc.steps {
				s.do(o)
				if got := o.State(0); got != s.want {
					t.Fatalf("step %d: state %v, want %v", i, got, s.want)
				}
				if got, want := o.Stalled(), stalledByScan(o); got != want {
					t.Fatalf("step %d: Stalled() = %v, a scan of the cores and threads says %v", i, got, want)
				}
			}
			if tc.panic == nil {
				return
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic from state %v", o.State(0))
				}
			}()
			tc.panic(o)
		})
	}
}

// stalledByScan is Stalled's reference: no core runs a thread and no thread
// is ready, read off every core and thread.
func stalledByScan(o *OS) bool {
	for c := range o.running {
		if o.Running(c) >= 0 {
			return false
		}
	}
	for tid := range o.threads {
		if o.State(tid) == StateReady {
			return false
		}
	}
	return true
}

// TestResetMatchesNew holds Reset to New: an OS that ran at one shape and
// is reset to another, more or fewer cores and threads, is deeply equal to
// a new one. A reused run queue is empty but keeps its array, where a new
// OS with no thread to queue has none, so an empty queue compares as nil.
func TestResetMatchesNew(t *testing.T) {
	o := New(2, 5)
	for _, s := range []struct{ cores, threads int }{{4, 8}, {1, 1}, {3, 2}, {8, 16}, {2, 3}} {
		// Run a little of every transition, so no state is the initial one.
		tid := o.Running(0)
		o.Block(tid)
		if f := o.Running(len(o.running) - 1); f >= 0 {
			o.Finish(f)
		}
		o.Wake(tid, 1_000)
		for c := range o.running {
			o.Schedule(c, 10_000)
		}
		o.Reset(s.cores, s.threads)
		got, want := *o, New(s.cores, s.threads)
		if len(got.readyQ) == 0 {
			got.readyQ = nil
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("reset to %d cores and %d threads: %+v, a new OS is %+v", s.cores, s.threads, got, *want)
		}
	}
}
