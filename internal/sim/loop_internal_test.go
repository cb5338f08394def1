package sim

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestGrantParkMarksCoreIdle pins the one change to a core's running thread
// made from another core: a grant that finds its waiter still spinning past
// the grace parks and wakes it, which must leave the waiter's core idle in
// coreAt as well as in the scheduler, or Run would skip the core while a
// woken thread is ready. TestRunMatchesPollingLoop reaches this path, but
// the registry's cells never make the skipped quantum observable.
func TestGrantParkMarksCoreIdle(t *testing.T) {
	m, err := NewMachine(smallConfig(2), []trace.Program{computeOnly(1, 4), computeOnly(1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	const core = 1 // thread i starts on core i
	w := &m.threads[core]
	w.time = 500
	m.coreAt[core] = w.time
	m.beginWait(w, waitLock)
	m.grantWaiter(w, w.waitStart+m.grace(waitLock)+1, true)
	// Parked and at once woken by the grant: ready, and off its core.
	if st := m.os.State(w.id); st != sched.StateReady || m.os.Running(core) >= 0 {
		t.Fatalf("waiter not parked off core %d: state %v, running %d", core, st, m.os.Running(core))
	}
	if m.coreAt[core] != coreIdle {
		t.Fatalf("coreAt[%d] = %d after the park, want coreIdle", core, m.coreAt[core])
	}
}
