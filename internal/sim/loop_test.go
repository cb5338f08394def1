package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunMatchesPollingLoop is the fence around Machine.Run's quantum loop:
// on the same machine and programs it must return exactly the Result of the
// polling loop it replaced (RunPolling, export_test.go), which looks up every
// core's running thread each quantum. The cells cover the contention
// patterns whose waits park and are granted across cores, one analogue per
// workload family at 4 and 16 threads, more threads than cores (Figure 7's
// shape, with time-slice preemption), the one-thread single-quantum shape,
// fast mode's scaled quantum, and a one-cycle lock grace, under which a
// grant often finds its waiter still spinning past the grace on another
// core (grantWaiter's park-then-wake, the one cross-core change to a
// core's running thread).
func TestRunMatchesPollingLoop(t *testing.T) {
	type cell struct {
		name           string
		threads, cores int
		mode           sim.Mode
		lockGrace      uint64 // 0: the spec's own
	}
	var cells []cell
	for _, name := range []string{"lock_staircase", "queue_handoff", "drain_tail",
		"fft_splash2", "cholesky_splash2", "dedup_parsec_small"} {
		for _, n := range []int{4, 16} {
			cells = append(cells, cell{name, n, n, sim.ModeExact, 0})
		}
	}
	cells = append(cells,
		cell{"ferret_parsec_small", 16, 4, sim.ModeExact, 0},
		cell{"dispatch_serial", 16, 4, sim.ModeExact, 0},
		cell{"queue_handoff", 16, 4, sim.ModeExact, 0},
		cell{"fft_splash2", 1, 1, sim.ModeExact, 0},
		cell{"dedup_parsec_small", 16, 16, sim.ModeFast, 0},
		cell{"lock_staircase", 16, 16, sim.ModeExact, 1},
		cell{"lock_staircase", 16, 4, sim.ModeExact, 1})

	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%dt%dc/%v/grace%d", c.name, c.threads, c.cores, c.mode, c.lockGrace), func(t *testing.T) {
			b, ok := workload.ByName(c.name)
			if !ok {
				t.Fatalf("no workload %s", c.name)
			}
			if c.lockGrace != 0 {
				b.Spec.LockGrace = c.lockGrace
			}
			// The machine workload.Simulate would run, built twice because
			// programs are consumed by a run.
			build := func() *sim.Machine {
				progs, err := b.Spec.Parallel(c.threads)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Default().WithMode(c.mode).WithCores(c.cores)
				cfg.Policy = b.Spec.TunePolicy(cfg.Policy)
				m, err := sim.NewMachine(cfg, progs)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range b.Spec.PipelineOptions(c.threads) {
					o(m)
				}
				return m
			}
			got, err := build().Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := build().RunPolling()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Run differs from the polling loop:\nRun     Tp=%d ops=%d %+v\npolling Tp=%d ops=%d %+v",
					got.Tp, got.TotalOps, got.Estimated, want.Tp, want.TotalOps, want.Estimated)
			}
		})
	}
}
