// Package sched models the operating-system scheduler of the simulated
// machine: thread-to-core placement, a global FIFO run queue with time
// slicing, futex-style blocking and wake-up latencies, context-switch and
// migration costs.
//
// The scheduler is what turns long synchronization waits into the paper's
// *yielding* component: a thread that exceeds its spin grace period is
// descheduled, the OS records the descheduled time, and (when more software
// threads than cores exist, as in Figure 7) another ready thread gets the
// core. It alone owns each thread's state (State) and the slice rule
// (Preempt); the simulator owns only the sync wait, and a spinner is a
// waiting thread the scheduler has on a core.
package sched

import (
	"fmt"

	"repro/internal/reuse"
)

// The scheduler's costs, loosely modeled on a Linux CFS-like scheduler at a
// 2 GHz clock. The paper evaluates one machine, so they are constants.
const (
	// TimeSliceCycles is the preemption quantum for ready threads competing
	// for cores. Only relevant when threads > cores.
	TimeSliceCycles uint64 = 200_000
	// CtxSwitchCycles is charged each time a core switches threads.
	CtxSwitchCycles uint64 = 900
	// WakeLatencyCycles is the futex wake-up latency: the delay between a
	// wake event and the thread becoming ready.
	WakeLatencyCycles uint64 = 2_200
	// MigrationCycles is the extra cost when a thread resumes on a core
	// different from its last one (cold private caches, in our model a
	// fixed charge).
	MigrationCycles uint64 = 1_200
	// DecisionCyclesPerCore models scheduler bookkeeping that grows with
	// the number of cores; it reproduces the small efficiency loss the
	// paper observes for the 16-core Linux scheduler in Figure 7.
	DecisionCyclesPerCore uint64 = 28
)

// ThreadState is the scheduler-visible state of a thread.
type ThreadState uint8

// Thread states.
const (
	// StateRunning: assigned to a core and executing.
	StateRunning ThreadState = iota
	// StateReady: runnable, waiting for a core.
	StateReady
	// StateBlocked: descheduled on a synchronization object (futex wait).
	StateBlocked
	// StateFinished: terminated.
	StateFinished
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateReady:
		return "ready"
	case StateBlocked:
		return "blocked"
	case StateFinished:
		return "finished"
	default:
		return "unknown"
	}
}

type threadInfo struct {
	state       ThreadState
	core        int // current core when running, else -1
	lastCore    int
	availableAt uint64 // earliest time a ready thread may start (wake latency)
	sliceStart  uint64
}

// OS is the scheduler instance for one simulated machine.
type OS struct {
	threads []threadInfo
	running []int // per core: thread id or -1
	busy    int   // cores running a thread
	readyQ  []int // FIFO of ready thread ids
}

// New returns an OS just Reset for cores and threads: a new one is a reset one.
func New(cores, threads int) *OS {
	o := new(OS)
	o.Reset(cores, threads)
	return o
}

// Reset puts the OS in its just-constructed state for threads software
// threads over cores cores, whatever it last managed, reusing its storage
// when the capacity is enough (machine pooling across simulation runs), and
// performs initial placement: thread i starts on core i for i < cores; the
// rest start ready in the run queue.
func (o *OS) Reset(cores, threads int) {
	if cores <= 0 || threads <= 0 {
		panic("sched: cores and threads must be positive")
	}
	o.threads = reuse.Grown(o.threads, threads)
	o.running = reuse.Grown(o.running, cores)
	o.busy, o.readyQ = 0, o.readyQ[:0]
	for c := range o.running {
		o.running[c] = -1
	}
	for t := range o.threads {
		o.threads[t] = threadInfo{state: StateReady, core: -1, lastCore: -1}
		if t < cores {
			o.threads[t].state = StateRunning
			o.threads[t].core = t
			o.threads[t].lastCore = t
			o.running[t] = t
			o.busy++
		} else {
			o.readyQ = append(o.readyQ, t)
		}
	}
}

// Running returns the thread on core, or -1 when the core is idle.
func (o *OS) Running(core int) int { return o.running[core] }

// State returns thread tid's scheduling state.
func (o *OS) State(tid int) ThreadState { return o.threads[tid].state }

// HasReady reports whether some ready thread could use a core now.
func (o *OS) HasReady() bool { return len(o.readyQ) > 0 }

// Stalled reports whether no core runs a thread and no thread is ready.
// Only a running thread wakes a blocked one, so then no thread that is not
// finished will ever run again. It is one comparison, not a scan.
func (o *OS) Stalled() bool { return o.busy == 0 && len(o.readyQ) == 0 }

// Block deschedules the running thread tid (futex wait) and returns the
// core it ran on, which becomes idle; call Schedule to refill it.
func (o *OS) Block(tid int) (core int) {
	t := &o.threads[tid]
	if t.state != StateRunning {
		panic(fmt.Sprintf("sched: Block(%d) in state %v", tid, t.state))
	}
	core = t.core
	o.running[core] = -1
	o.busy--
	t.state = StateBlocked
	t.core = -1
	return core
}

// Wake makes a blocked thread ready at now; it becomes eligible to run
// after the futex wake latency. Safe to call only on blocked threads.
func (o *OS) Wake(tid int, now uint64) {
	t := &o.threads[tid]
	if t.state != StateBlocked {
		panic(fmt.Sprintf("sched: Wake(%d) in state %v", tid, t.state))
	}
	t.state = StateReady
	t.availableAt = now + WakeLatencyCycles
	o.readyQ = append(o.readyQ, tid)
}

// Finish marks a running thread as terminated and frees its core.
func (o *OS) Finish(tid int) {
	t := &o.threads[tid]
	if t.state != StateRunning {
		panic(fmt.Sprintf("sched: Finish(%d) in state %v", tid, t.state))
	}
	o.running[t.core] = -1
	o.busy--
	t.state = StateFinished
	t.core = -1
}

// Preempt requeues core's running thread if its time slice is used up at
// now and another thread is ready, and reports whether it did.
func (o *OS) Preempt(core int, now uint64) bool {
	tid := o.running[core]
	if tid < 0 || len(o.readyQ) == 0 {
		return false
	}
	t := &o.threads[tid]
	if now-t.sliceStart < TimeSliceCycles {
		return false
	}
	o.running[core] = -1
	o.busy--
	t.state = StateReady
	t.core = -1
	t.availableAt = now
	o.readyQ = append(o.readyQ, tid)
	return true
}

// Schedule fills an idle core from the run queue at time now. It prefers a
// never-placed thread, so preempted threads cannot starve newcomers; then,
// like Linux's wake affinity, a ready thread that last ran on this core
// (keeping private caches and the per-core accounting hardware warm; with
// one thread per core this yields strict pinning); then the queue head. It
// returns the chosen thread and the time it actually starts executing
// (after wake latency, context switch, migration and scheduler decision
// overhead), or (-1, 0) when no thread is ready.
func (o *OS) Schedule(core int, now uint64) (tid int, startAt uint64) {
	if o.running[core] >= 0 || len(o.readyQ) == 0 {
		return -1, 0
	}
	pick := -1
	for i, cand := range o.readyQ {
		if o.threads[cand].lastCore == -1 {
			pick = i // never-placed threads first: they cannot be starved
			break
		}
	}
	if pick < 0 {
		for i, cand := range o.readyQ {
			if o.threads[cand].lastCore == core {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		pick = 0
	}
	tid = o.readyQ[pick]
	o.readyQ = append(o.readyQ[:pick], o.readyQ[pick+1:]...)
	t := &o.threads[tid]
	start := now
	if t.availableAt > start {
		start = t.availableAt
	}
	start += CtxSwitchCycles + DecisionCyclesPerCore*uint64(len(o.running))
	if t.lastCore >= 0 && t.lastCore != core {
		start += MigrationCycles
	}
	t.state = StateRunning
	t.core = core
	t.lastCore = core
	t.sliceStart = start
	o.running[core] = tid
	o.busy++
	return tid, start
}
