package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
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
