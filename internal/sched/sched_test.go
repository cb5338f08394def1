package sched

import "testing"

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
	if o.threads[4].state != StateReady || o.threads[0].state != StateRunning {
		t.Fatal("unexpected initial states")
	}
}

func TestBlockWakeSchedule(t *testing.T) {
	o := New(2, 2)
	o.Block(0)
	if o.Running(0) != -1 || o.threads[0].state != StateBlocked {
		t.Fatal("block did not free the core")
	}
	o.Wake(0, 5000)
	if o.threads[0].state != StateReady {
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
	o.Preempt(0, 100) // thread 0 requeued behind fresh threads 1, 2
	tid, _ := o.Schedule(0, 200)
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
	o := New(1, 2)
	if o.SliceExpired(0, TimeSliceCycles-1) {
		t.Fatal("slice expired early")
	}
	if !o.SliceExpired(0, TimeSliceCycles) {
		t.Fatal("slice did not expire")
	}
	o.Preempt(0, TimeSliceCycles)
	if o.Running(0) != -1 || o.threads[0].state != StateReady {
		t.Fatal("preempt did not requeue the thread")
	}
	tid, _ := o.Schedule(0, TimeSliceCycles)
	if tid != 1 {
		t.Fatalf("next thread = %d, want 1 (fresh)", tid)
	}
}

func TestFinish(t *testing.T) {
	o := New(1, 1)
	o.Finish(0)
	if o.threads[0].state != StateFinished || o.Running(0) != -1 {
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
