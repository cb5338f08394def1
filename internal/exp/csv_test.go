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
	s := FormatSampling([]SamplingRow{{SampleShift: 5, ATDBytes: 3328, MeanAbsErrPct: 5.4}})
	if !strings.Contains(s, "3328") {
		t.Fatalf("sampling format: %q", s)
	}
	th := FormatThreshold([]ThresholdRow{{Threshold: 16, MeanAbsErrPct: 5.4, SpinShare: 3.6}})
	if !strings.Contains(th, "3.60") {
		t.Fatalf("threshold format: %q", th)
	}
	q := FormatQuantum([]QuantumRow{{Quantum: 100, Speedup16: 5.05, MeanAbsErrPct: 5.4}})
	if !strings.Contains(q, "5.05") {
		t.Fatalf("quantum format: %q", q)
	}
}

// TestAblationsOnFastEngine runs all three ablations on a fast-mode engine,
// as `experiments ablation -mode fast` does. The sampling sweep varies
// ATDSampleShift, which in fast mode also picks the sets simulated in
// detail; it is a study of the hardware proposal, not of the sampled
// simulator, so it runs on the exact machine and gives the exact engine's
// table.
func TestAblationsOnFastEngine(t *testing.T) {
	ctx := context.Background()
	fast := NewEngine(sim.Default().WithMode(sim.ModeFast))
	rows, err := AblationSampling(ctx, fast)
	if err != nil {
		t.Fatalf("sampling ablation on a fast engine: %v", err)
	}
	want, err := AblationSampling(ctx, NewEngine(sim.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("sampling ablation depends on the engine's mode:\nfast  %+v\nexact %+v", rows, want)
	}
	if th, err := AblationSpinThreshold(ctx, fast); err != nil || len(th) != 4 {
		t.Fatalf("spin-threshold ablation on a fast engine: %d rows, %v", len(th), err)
	}
	if q, err := AblationQuantum(ctx, fast); err != nil || len(q) != 4 {
		t.Fatalf("quantum ablation on a fast engine: %d rows, %v", len(q), err)
	}
	if st := fast.Stats(); st.FastCellRuns == 0 || st.FastCellRuns == st.CellRuns {
		t.Fatalf("want exact sampling cells and fast threshold/quantum cells, got %d fast of %d", st.FastCellRuns, st.CellRuns)
	}
}
