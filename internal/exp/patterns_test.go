package exp

import (
	"context"
	"testing"

	"repro/internal/stack"
	"repro/internal/workload"
)

// TestPatternKnownAnswers is the known-answer suite over the contention
// patterns: each pattern isolates one scaling pathology and declares the
// speedup-stack component that must dominate it, so a regression anywhere
// in the analysis stack — generator, simulator, accounting hardware, stack
// arithmetic, advisor — misattributes at least one pattern and fails here.
// Every pattern is checked at 4 and 16 threads, and its 1..16 advisor
// classification is pinned. The test runs under CI's -race job.
func TestPatternKnownAnswers(t *testing.T) {
	pats := workload.Patterns()
	if len(pats) < 8 {
		t.Fatalf("contention suite shrank to %d patterns, want >= 8", len(pats))
	}
	e := sharedEngine()
	ctx := context.Background()
	for _, b := range pats {
		b := b
		t.Run(b.Spec.Name, func(t *testing.T) {
			t.Parallel()
			if b.Spec.Suite != "contention" {
				t.Errorf("pattern suite = %q, want contention", b.Spec.Suite)
			}
			if b.ExpectedDominant == "" || b.ExpectedClass == "" {
				t.Fatalf("pattern declares no known answer (dominant %q, class %q)",
					b.ExpectedDominant, b.ExpectedClass)
			}
			for _, threads := range []int{4, 16} {
				outs, err := e.Sweep(ctx, []Cell{{Bench: b.FullName(), Threads: threads}})
				if err != nil {
					t.Fatalf("x%d: %v", threads, err)
				}
				named := stack.Named(outs[0].Stack)
				want, ok := named[b.ExpectedDominant]
				if !ok {
					t.Fatalf("unknown expected component %q", b.ExpectedDominant)
				}
				// The declared component must dominate: strictly the largest
				// and a significant share of the stack, not a near-tie.
				if want < stack.NegligibleThreshold {
					t.Errorf("x%d: expected dominant %s is negligible (%.3f)",
						threads, b.ExpectedDominant, want)
				}
				for comp, v := range named {
					if comp != b.ExpectedDominant && v >= want {
						t.Errorf("x%d: %s (%.3f) is not dominated by expected %s (%.3f)",
							threads, comp, v, b.ExpectedDominant, want)
					}
				}
			}
			a, err := e.Advise(ctx, Request{Cell: Cell{Bench: b.FullName()}}, 16)
			if err != nil {
				t.Fatalf("advise: %v", err)
			}
			if string(a.Class) != b.ExpectedClass {
				t.Errorf("advisor class = %s, want %s", a.Class, b.ExpectedClass)
			}
			if a.Bottleneck != b.ExpectedDominant {
				t.Errorf("advisor bottleneck = %q, want %q", a.Bottleneck, b.ExpectedDominant)
			}
		})
	}
}
