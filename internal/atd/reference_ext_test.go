package atd_test

import (
	"fmt"
	"testing"

	"repro/internal/atd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRecordedStreamsMatchReference replays the recorded op streams of one
// analogue per workload family — each thread's loads and stores in program
// order, as its core's directory would see them with no L1 in front —
// through a directory on the default LLC's geometry at sample shifts 0 to
// 5, hit for hit against the plain model in reference_test.go. It is an
// external test package because it records workloads, and workload imports
// sim imports atd.
func TestRecordedStreamsMatchReference(t *testing.T) {
	def := sim.Default()
	for _, name := range []string{"lu.cont_splash2", "cholesky_splash2", "dedup_parsec_small"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no analogue %s", name)
		}
		f, _, err := workload.Record(def, b.Spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		for thread, ops := range f.Threads {
			var addrs []uint64
			for _, op := range ops {
				if op.Kind == trace.KindLoad || op.Kind == trace.KindStore {
					addrs = append(addrs, op.Addr)
				}
			}
			for shift := uint(0); shift <= 5; shift++ {
				cfg := atd.Config{Sets: def.LLC.Sets(), Ways: def.LLC.Ways, LineBytes: def.LLC.LineBytes, SampleShift: shift}
				t.Run(fmt.Sprintf("%s/t%d/shift%d", name, thread, shift), func(t *testing.T) {
					atd.ReplayAgainstReference(t, cfg, addrs)
				})
			}
		}
	}
}
