package exp

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// gridSections are the sections that simulate a grid of cells: each must
// declare all of them, across every machine it sweeps, in one Do.
var gridSections = []string{
	"fig1", "validation", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"ablation", "fastcompare", "calibrate", "custom",
}

// TestGridSectionsDeclareOnce runs every grid section on the shared engine
// and reads how many batches it declared: each Do with cells counts one in
// Stats.Batches, memo hits included, so a section that counts two issues
// its cells in sequential steps, each waiting on the last.
func TestGridSectionsDeclareOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every grid section")
	}
	e := sharedEngine()
	custom, ok := workload.ByName("lud_rodinia")
	if !ok {
		t.Fatal("lud_rodinia not registered")
	}
	p := DefaultParams
	p.Spec = func() (workload.Spec, error) { return custom.Spec, nil }
	sections := map[string]Artifact{}
	for _, a := range Artifacts {
		sections[a.Name] = a
	}
	for _, name := range gridSections {
		a, ok := sections[name]
		if !ok {
			t.Fatalf("section %s is not registered", name)
		}
		before := e.Stats().Batches
		if _, err := a.Run(context.Background(), e, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := e.Stats().Batches - before; n > 1 {
			t.Errorf("%s declared its cells in %d steps, want one Do", name, n)
		}
	}
}
