package exp

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

func TestAdviseThreadsSchedule(t *testing.T) {
	cases := map[int][]int{
		3:  {1, 2, 3},
		4:  {1, 2, 4},
		16: {1, 2, 4, 8, 16},
		12: {1, 2, 4, 8, 12},
		17: {1, 2, 4, 8, 16, 17},
	}
	for max, want := range cases {
		if got := AdviseThreads(max); !reflect.DeepEqual(got, want) {
			t.Errorf("AdviseThreads(%d) = %v, want %v", max, got, want)
		}
	}
}

func TestAdviseBounds(t *testing.T) {
	e := NewEngine(sim.Default())
	req := Request{Cell: Cell{Bench: "fft_splash2"}}
	for _, max := range []int{0, 1, 2, cache.MaxCores + 1} {
		if _, err := e.Advise(context.Background(), req, max); err == nil {
			t.Errorf("Advise with max threads %d: want error", max)
		}
	}
	if _, err := e.Advise(context.Background(), Request{Cell: Cell{Bench: "nope"}}, 16); err == nil {
		t.Error("Advise with unknown benchmark: want error")
	}
}

// TestAdviseRegistryClassification is the registry-wide advisor validation:
// every analogue must land in the class its generator family was calibrated
// for (the paper's Figure 6 boundary: >= 10x at 16 threads is good scaling,
// which the advisor calls linear; nothing in the registry scales
// negatively), and for the synchronization-dominated families —
// lock-dispensed task queues, barrier-phased workloads with skewed shares,
// pipelines — the fitted serial fraction must agree with the stack's
// spinning/yielding/imbalance view within the documented bound.
func TestAdviseRegistryClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	e := sharedEngine()
	sawDisagreement := false
	for _, b := range workload.All() {
		a, err := e.Advise(context.Background(), Request{Cell: Cell{Bench: b.FullName()}}, 16)
		if err != nil {
			t.Fatalf("%s: %v", b.FullName(), err)
		}
		want := scaling.ClassSaturated
		if b.PaperSpeedup16 >= 10 {
			want = scaling.ClassLinear
		}
		if a.Class != want {
			t.Errorf("%s: classified %s, generator family predicts %s (paper %0.2fx)",
				b.FullName(), a.Class, want, b.PaperSpeedup16)
		}
		if len(a.Points) != 5 {
			t.Errorf("%s: %d sweep points, want 5", b.FullName(), len(a.Points))
		}
		for _, f := range []scaling.Fit{a.Amdahl, a.USL} {
			if f.Sigma < 0 || f.Sigma > 1 || f.Kappa < 0 {
				t.Errorf("%s: fit outside constraints: %+v", b.FullName(), f)
			}
		}
		if a.USL.R2 < 0.85 {
			t.Errorf("%s: USL fit R2=%.3f, want >= 0.85", b.FullName(), a.USL.R2)
		}
		// The cross-check: serialization-dominated analogues must agree.
		switch a.Bottleneck {
		case stack.CompSpinning, stack.CompYielding, stack.CompImbalance:
			if !a.SigmaAgrees {
				t.Errorf("%s: %s-dominated but fitted sigma %.4f disagrees with stack sigma %.4f (bound %.2f)",
					b.FullName(), a.Bottleneck, a.Amdahl.Sigma, a.SigmaStack, scaling.SigmaAgreementBound)
			}
		}
		if !a.SigmaAgrees {
			sawDisagreement = true
		}
		if len(a.Recommendations) == 0 && a.Bottleneck != "" {
			t.Errorf("%s: bottleneck %s but no recommendations", b.FullName(), a.Bottleneck)
		}
	}
	if !sawDisagreement {
		t.Error("no analogue tripped the sigma disagreement flag; expected the memory-saturated one to")
	}
	// srad saturates on DRAM bandwidth, not synchronization: its curve shape
	// is not explained by serialization, which is exactly what the
	// disagreement flag exists to say.
	a, err := e.Advise(context.Background(), Request{Cell: Cell{Bench: "srad_rodinia"}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.SigmaAgrees {
		t.Errorf("srad_rodinia: memory-saturated analogue should trip the sigma disagreement flag (fit %.4f vs stack %.4f)",
			a.Amdahl.Sigma, a.SigmaStack)
	}
	if a.Bottleneck != stack.CompMemory {
		t.Errorf("srad_rodinia: bottleneck %q, want %q", a.Bottleneck, stack.CompMemory)
	}
}

// TestAdviseMemoized verifies the sweep rides the fingerprint-keyed cell
// memo: repeating the advice, or asking for it after the cells were already
// simulated, costs no new simulation.
func TestAdviseMemoized(t *testing.T) {
	var runs atomic.Int32
	e := NewEngine(sim.Default(), WithRunHook(func(kind, bench string, threads, cores int) {
		if kind == "cell" {
			runs.Add(1)
		}
	}))
	req := Request{Cell: Cell{Bench: "fft_splash2"}}
	a1, err := e.Advise(context.Background(), req, 8)
	if err != nil {
		t.Fatal(err)
	}
	first := runs.Load()
	if first != 4 { // 1, 2, 4, 8
		t.Fatalf("first advise ran %d cells, want 4", first)
	}
	a2, err := e.Advise(context.Background(), req, 8)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != first {
		t.Errorf("second advise ran %d new cells, want 0", runs.Load()-first)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("repeated advise differs")
	}
	// An inline spec identical to the registry analogue hits the same memo
	// entries (identity is the canonical fingerprint, not the name).
	b, _ := workload.ByName("fft_splash2")
	spec := b.Spec
	if _, err := e.Advise(context.Background(), Request{Cell: Cell{Spec: &spec}}, 8); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != first {
		t.Errorf("inline-spec advise ran %d new cells, want 0", runs.Load()-first)
	}
}
