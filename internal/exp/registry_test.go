package exp

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// gridSections are the sections that simulate a grid of cells: each must
// declare all of them, across every machine it sweeps, in one Do.
var gridSections = []string{
	"fig1", "validation", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"ablation", "fastcompare", "calibrate", "custom",
}

// TestGridSectionsDeclareOnce runs every grid section on an engine whose
// progress callback counts the declarations: each Do with cells raises the
// declared total once, memo hits included, so a section that raises it
// twice issues its cells in sequential steps, each waiting on the last.
func TestGridSectionsDeclareOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every grid section")
	}
	var mu sync.Mutex
	raises, last := 0, 0
	e := NewEngine(sim.Default(), WithWorkers(runtime.NumCPU()), WithProgress(func(_, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total > last {
			raises++
			last = total
		}
	}))
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
		mu.Lock()
		raises = 0
		mu.Unlock()
		if _, err := a.Run(context.Background(), e, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		if raises > 1 {
			t.Errorf("%s declared its cells in %d steps, want one Do", name, raises)
		}
		mu.Unlock()
	}
}
