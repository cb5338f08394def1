package exp

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLimitFences holds every judge of a core, thread or queue bound to the
// one declaration that owns it — cache.MaxCores, trace.MaxThreads,
// trace.MaxQueueCap: each judge accepts the owner's bound and refuses the
// bound plus one, so a judge that re-spells the limit one lower or one
// higher fails here.
func TestLimitFences(t *testing.T) {
	cfg := sim.Default()
	pipeline := workload.Spec{Name: "fence", Kind: workload.KindPipeline, Items: 1,
		Stages: []workload.StageSpec{{Weight: 1}, {Weight: 1}}}
	for _, tc := range []struct {
		judge string
		bound int
		check func(n int) error
	}{
		{"Cell.CheckShape threads", trace.MaxThreads,
			func(n int) error { return Cell{Threads: n, Cores: 1}.CheckShape() }},
		{"Cell.CheckShape cores", cache.MaxCores,
			func(n int) error { return Cell{Threads: 1, Cores: n}.CheckShape() }},
		{"Cell.CheckShape threads as cores", cache.MaxCores,
			func(n int) error { return Cell{Threads: n}.CheckShape() }},
		{"sim.Config.Validate", cache.MaxCores,
			func(n int) error { return cfg.WithCores(n).Validate() }},
		{"cache.NewHierarchy", cache.MaxCores, func(n int) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			cache.NewHierarchy(n, cfg.L1, cfg.LLC)
			return nil
		}},
		{"trace.Header.Check threads", trace.MaxThreads,
			func(n int) error { return trace.Header{}.Check(n) }},
		{"trace.Header.Check queue capacity", trace.MaxQueueCap, func(n int) error {
			return trace.Header{Queues: []trace.QueueReg{{Cap: n}}}.Check(1)
		}},
		{"trace.Header.Check queue id", trace.MaxSyncID, func(n int) error {
			return trace.Header{Queues: []trace.QueueReg{{ID: uint32(n), Cap: 1}}}.Check(1)
		}},
		{"trace.Header.Check barrier id", trace.MaxSyncID, func(n int) error {
			return trace.Header{Barriers: []trace.BarrierReg{{ID: uint32(n), Parties: 1}}}.Check(1)
		}},
		{"workload.Spec.Validate queue_cap", trace.MaxQueueCap, func(n int) error {
			s := pipeline
			s.QueueCap = n
			return s.Validate()
		}},
	} {
		if err := tc.check(tc.bound); err != nil {
			t.Errorf("%s refuses the bound %d: %v", tc.judge, tc.bound, err)
		}
		if err := tc.check(tc.bound + 1); err == nil {
			t.Errorf("%s accepts %d, one past the bound", tc.judge, tc.bound+1)
		}
	}
}
