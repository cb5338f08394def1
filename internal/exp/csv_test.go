package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
)

func TestWriteStacksCSV(t *testing.T) {
	var sb strings.Builder
	bars := []stack.Bar{{Label: "l", Stack: core.Stack{
		N: 4, Tp: 1000,
		Components:    core.Components{Yield: 500},
		ActualSpeedup: 3.2,
	}}}
	if err := WriteStacksCSV(&sb, bars); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "label,threads,estimated,actual") {
		t.Fatalf("header missing: %q", out)
	}
	if !strings.Contains(out, "0.5000") { // yield in speedup units
		t.Fatalf("yield column missing: %q", out)
	}
}

func TestAblationFormatters(t *testing.T) {
	out := FormatAblation(Ablations{
		Sampling:  []SamplingRow{{SampleShift: 5, ATDBytes: 3328, MeanAbsErrPct: 5.4}},
		Threshold: []ThresholdRow{{Threshold: 16, MeanAbsErrPct: 5.4, SpinShare: 3.6}},
		Quantum:   []QuantumRow{{Quantum: 100, Speedup16: 5.05, MeanAbsErrPct: 5.4}},
	})
	for table, want := range map[string]string{"sampling": "3328", "threshold": "3.60", "quantum": "5.05"} {
		if !strings.Contains(out, want) {
			t.Fatalf("%s format: %q lacks %s", table, out, want)
		}
	}
}

// TestAblationsOnFastEngine runs the ablation on a fast-mode engine, as
// `experiments ablation -mode fast` does. The sampling sweep varies
// ATDSampleShift, which in fast mode also picks the sets simulated in
// detail; it is a study of the hardware proposal, not of the sampled
// simulator, so it runs on the exact machine and gives the exact engine's
// table.
func TestAblationsOnFastEngine(t *testing.T) {
	ctx := context.Background()
	fast := NewEngine(sim.Default().WithMode(sim.ModeFast))
	got, err := Ablation(ctx, fast)
	if err != nil {
		t.Fatalf("ablation on a fast engine: %v", err)
	}
	want, err := Ablation(ctx, NewEngine(sim.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sampling, want.Sampling) {
		t.Fatalf("sampling ablation depends on the engine's mode:\nfast  %+v\nexact %+v", got.Sampling, want.Sampling)
	}
	if len(got.Sampling) != 4 || len(got.Threshold) != 4 || len(got.Quantum) != 4 {
		t.Fatalf("ablation on a fast engine: %d sampling, %d threshold, %d quantum rows, want 4 each",
			len(got.Sampling), len(got.Threshold), len(got.Quantum))
	}
	if st := fast.Stats(); st.FastCellRuns == 0 || st.FastCellRuns == st.CellRuns {
		t.Fatalf("want exact sampling cells and fast threshold/quantum cells, got %d fast of %d", st.FastCellRuns, st.CellRuns)
	}
}
