package whatif

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// TestCatalogShape pins the catalog contract: stable IDs in presentation
// order, unique, every entry's primary component among its scales, every
// factor in [0, 1].
func TestCatalogShape(t *testing.T) {
	want := []string{HalveLockHold, RemoveImbalance, DoubleLLC, HalveMemLatency}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	seen := make(map[string]bool)
	for _, iv := range Catalog() {
		if seen[iv.ID] {
			t.Errorf("duplicate catalog ID %q", iv.ID)
		}
		seen[iv.ID] = true
		if iv.Summary == "" || iv.Component == "" {
			t.Errorf("%s: empty summary or component", iv.ID)
		}
		if !iv.ScalesComponent(iv.Component) {
			t.Errorf("%s: primary component %q not among its scales", iv.ID, iv.Component)
		}
		for _, sc := range iv.Scales {
			if sc.Factor < 0 || sc.Factor > 1 {
				t.Errorf("%s: factor %g for %q outside [0, 1]", iv.ID, sc.Factor, sc.Component)
			}
		}
	}
}

// TestCatalogReturnsCopies: mutating a Catalog() result must not corrupt the
// registry.
func TestCatalogReturnsCopies(t *testing.T) {
	c := Catalog()
	c[0].ID = "clobbered"
	if got, _ := ByID(HalveLockHold); got.ID != HalveLockHold {
		t.Error("Catalog() exposes the registry backing array")
	}
}

// TestByID resolves every catalog ID and types the failure path: unknown IDs
// fail with *workload.LookupError, match errors.Is, and carry a
// nearest-ID suggestion for plausible typos but not for noise.
func TestByID(t *testing.T) {
	for _, id := range IDs() {
		iv, err := ByID(id)
		if err != nil || iv.ID != id {
			t.Errorf("ByID(%q) = %v, %v", id, iv.ID, err)
		}
	}
	_, err := ByID("double_lcc")
	if err == nil {
		t.Fatal("ByID accepted an unknown ID")
	}
	if !errors.Is(err, ErrUnknownIntervention) {
		t.Error("lookup failure does not match ErrUnknownIntervention")
	}
	var typed *workload.LookupError
	if !errors.As(err, &typed) {
		t.Fatalf("lookup failure is %T, not *workload.LookupError", err)
	}
	if typed.Suggestion != DoubleLLC {
		t.Errorf("suggestion for double_lcc = %q, want %q", typed.Suggestion, DoubleLLC)
	}
	if !strings.Contains(err.Error(), "did you mean") {
		t.Errorf("error %q lacks the did-you-mean hint", err)
	}
	_, err = ByID("zzzzzzzzzzzzzzzzzzzz")
	var noise *workload.LookupError
	if !errors.As(err, &noise) {
		t.Fatalf("noise lookup is %T", err)
	}
	if noise.Suggestion != "" {
		t.Errorf("noise ID drew suggestion %q, want none", noise.Suggestion)
	}
	if !strings.Contains(err.Error(), HalveLockHold) {
		t.Errorf("suggestion-less error %q does not list the catalog", err)
	}
}

// testStack builds a hand-sized stack: N=4, Tp=1000 cycles, with every
// overhead component present and positive interference partially offsetting
// the LLC loss.
func testStack() core.Stack {
	return core.Stack{
		N: 4, Tp: 1000,
		Components: core.Components{
			NegLLC: 300, PosLLC: 100, NegMem: 200, Spin: 400, Yield: 150, Imbalance: 250,
		},
		ActualSpeedup: 2.5,
	}
}

// TestPredictGain checks the Formula (4) re-evaluation against hand
// arithmetic on testStack, including the two subtleties: the cache
// component is the net interference, and net-positive components contribute
// nothing.
func TestPredictGain(t *testing.T) {
	st := testStack()
	cases := []struct {
		id   string
		want float64
	}{
		// spinning = 400/1000; halving reclaims half.
		{HalveLockHold, 0.5 * 0.400},
		// yielding 150/1000 and imbalance 250/1000, both fully removed.
		{RemoveImbalance, 0.150 + 0.250},
		// net cache = (300-100)/1000; halving reclaims half.
		{DoubleLLC, 0.5 * 0.200},
		// memory = 200/1000; halved.
		{HalveMemLatency, 0.5 * 0.200},
	}
	for _, c := range cases {
		iv, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := PredictGain(st, iv); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PredictGain(%s) = %g, want %g", c.id, got, c.want)
		}
	}
	// A net-positive LLC (PosLLC > NegLLC) must predict zero cache gain: the
	// intervention cannot reclaim cycles the workload is not losing.
	st.Components.PosLLC = 500
	iv, _ := ByID(DoubleLLC)
	if got := PredictGain(st, iv); got != 0 {
		t.Errorf("net-positive LLC predicted gain %g, want 0", got)
	}
}

// mutateSpecs returns one canonical spec per registry family plus targeted
// degenerate variants.
func dpSpec() workload.Spec {
	b, ok := workload.ByName("cholesky_splash2")
	if !ok {
		panic("cholesky_splash2 not registered")
	}
	return b.Spec
}

// TestMutateApplicability walks the applicability matrix: which
// interventions produce a concrete mutation for which workload shapes, and
// that every produced spec mutation is still valid with an unchanged name.
func TestMutateApplicability(t *testing.T) {
	cfg := sim.Default()
	var dp, tq, pipe workload.Spec
	for _, b := range workload.All() {
		switch {
		case b.Spec.Kind == workload.KindDataParallel && dp.Name == "" && b.Spec.CSInstr > 0 && b.Spec.CSPerThreadPerPhase > 0 && b.Spec.EffectiveParallelism > 0:
			dp = b.Spec
		case b.Spec.Kind == workload.KindTaskQueue && tq.Name == "":
			tq = b.Spec
		case b.Spec.Kind == workload.KindPipeline && pipe.Name == "":
			pipe = b.Spec
		}
	}
	if dp.Name == "" || tq.Name == "" || pipe.Name == "" {
		t.Fatal("registry no longer covers all three workload kinds with lock/imbalance knobs")
	}

	for _, c := range []struct {
		name string
		spec workload.Spec
		id   string
		ok   bool
		spc  bool // mutation is a spec (vs config) mutation
	}{
		{"dp halve_lock_hold", dp, HalveLockHold, true, true},
		{"tq halve_lock_hold", tq, HalveLockHold, true, true},
		{"pipeline halve_lock_hold", pipe, HalveLockHold, false, false},
		{"dp remove_imbalance", dp, RemoveImbalance, true, true},
		{"pipeline remove_imbalance", pipe, RemoveImbalance, false, false},
		{"dp double_llc", dp, DoubleLLC, true, false},
		{"pipeline double_llc", pipe, DoubleLLC, true, false},
		{"dp halve_mem_latency", dp, HalveMemLatency, true, false},
	} {
		iv, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := iv.Mutate(c.spec.Canonical(), cfg)
		if ok != c.ok {
			t.Errorf("%s: applicable = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if m.Description == "" {
			t.Errorf("%s: empty mutation description", c.name)
		}
		if (m.Spec != nil) != c.spc || (m.Spec == nil) == (m.Config == nil) {
			t.Errorf("%s: mutation spec/config shape wrong: spec=%v config=%v", c.name, m.Spec != nil, m.Config != nil)
		}
		if m.Spec != nil {
			if err := m.Spec.Validate(); err != nil {
				t.Errorf("%s: mutated spec invalid: %v", c.name, err)
			}
			if m.Spec.Name != c.spec.Name {
				t.Errorf("%s: mutation renamed the workload %q -> %q", c.name, c.spec.Name, m.Spec.Name)
			}
			if m.Spec.Fingerprint() == c.spec.Canonical().Fingerprint() {
				t.Errorf("%s: mutation left the fingerprint unchanged (no-op)", c.name)
			}
		}
		if m.Config != nil {
			if err := m.Config.Validate(); err != nil {
				t.Errorf("%s: mutated config invalid: %v", c.name, err)
			}
			if *m.Config == cfg {
				t.Errorf("%s: mutation left the config unchanged (no-op)", c.name)
			}
		}
	}

	// Degenerate shapes: no critical section, already balanced.
	noCS := dp
	noCS.CSInstr, noCS.CSPerThreadPerPhase = 0, 0
	if iv, _ := ByID(HalveLockHold); func() bool { _, ok := iv.Mutate(noCS.Canonical(), cfg); return ok }() {
		t.Error("halve_lock_hold applied to a lock-free workload")
	}
	balanced := dp
	balanced.EffectiveParallelism = 0
	if iv, _ := ByID(RemoveImbalance); func() bool { _, ok := iv.Mutate(balanced.Canonical(), cfg); return ok }() {
		t.Error("remove_imbalance applied to an already balanced workload")
	}
}

// TestMutateHardwareValues pins the hardware mutations' arithmetic: LLC
// capacity doubles, DRAM and bus latencies halve without reaching zero.
func TestMutateHardwareValues(t *testing.T) {
	cfg := sim.Default()
	iv, _ := ByID(DoubleLLC)
	m, ok := iv.Mutate(dpSpec().Canonical(), cfg)
	if !ok || m.Config.LLC.SizeBytes != 2*cfg.LLC.SizeBytes {
		t.Errorf("double_llc: %d -> %d bytes", cfg.LLC.SizeBytes, m.Config.LLC.SizeBytes)
	}
	iv, _ = ByID(HalveMemLatency)
	m, ok = iv.Mutate(dpSpec().Canonical(), cfg)
	if !ok {
		t.Fatal("halve_mem_latency not applicable")
	}
	if m.Config.Mem.RowHitCycles != cfg.Mem.RowHitCycles/2 ||
		m.Config.Mem.RowMissCycles != cfg.Mem.RowMissCycles/2 ||
		m.Config.Mem.BusCycles != cfg.Mem.BusCycles/2 {
		t.Errorf("halve_mem_latency mutated to %+v", m.Config.Mem)
	}
	if got := halveCycles(1); got != 1 {
		t.Errorf("halveCycles(1) = %d, want 1 (latencies must not reach zero)", got)
	}
}

// TestRank pins the ranking contract: predicted gain descending, ties broken
// by intervention ID ascending, independent of input order.
func TestRank(t *testing.T) {
	preds := []Prediction{
		{Intervention: "b", PredictedGain: 1},
		{Intervention: "d", PredictedGain: 3},
		{Intervention: "a", PredictedGain: 1},
		{Intervention: "c", PredictedGain: 2},
	}
	Rank(preds)
	var got []string
	for _, p := range preds {
		got = append(got, p.Intervention)
	}
	want := []string{"d", "c", "a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Rank order %v, want %v", got, want)
	}
}

// TestErrorBoundsCoverCatalog: every catalog intervention has a documented
// bound, and no bound is stale (documents an intervention that no longer
// exists).
func TestErrorBoundsCoverCatalog(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ErrorBounds[id]; !ok {
			t.Errorf("no documented error bound for %s", id)
		}
	}
	for id := range ErrorBounds {
		if _, err := ByID(id); err != nil {
			t.Errorf("ErrorBounds documents unknown intervention %q", id)
		}
	}
}

// testReport assembles a two-prediction report with bars for encoder tests.
func testReport() Report {
	st := testStack()
	return Report{
		Benchmark: "cholesky_splash2", Threads: 4,
		BaselineSpeedup: 2.5, BaselineEstimated: 2.9,
		Predictions: []Prediction{
			{Intervention: HalveLockHold, Summary: "halve the lock hold time", Component: stack.CompSpinning,
				Mutation: "cs_instr 3600 -> 1800", PredictedGain: 0.2, PredictedSpeedup: 2.7,
				ActualSpeedup: 2.65, ActualGain: 0.15, Error: 0.0125},
			{Intervention: DoubleLLC, Summary: "double the shared LLC capacity", Component: stack.CompCache,
				Mutation: "LLC 2048 KiB -> 4096 KiB", PredictedGain: 0.1, PredictedSpeedup: 2.6,
				ActualSpeedup: 2.6, ActualGain: 0.1, Error: 0},
		},
		Bars: []stack.Bar{
			{Label: "cholesky_splash2 x4 (baseline)", Stack: st},
			{Label: HalveLockHold, Stack: st},
			{Label: DoubleLLC, Stack: st},
		},
	}
}

// TestEncodeFormats smoke-tests all four encoders and pins the stable
// surface: the CSV header, the JSON field names, the text ranking order, and
// that Bars stay out of the JSON wire form.
func TestEncodeFormats(t *testing.T) {
	rep := testReport()
	var text, jsonb, csvb, svgb bytes.Buffer
	for _, c := range []struct {
		f stack.Format
		w *bytes.Buffer
	}{
		{stack.FormatText, &text}, {stack.FormatJSON, &jsonb},
		{stack.FormatCSV, &csvb}, {stack.FormatSVG, &svgb},
	} {
		if err := Encode(c.w, c.f, rep); err != nil {
			t.Fatalf("Encode(%v): %v", c.f, err)
		}
		if c.w.Len() == 0 {
			t.Fatalf("Encode(%v) wrote nothing", c.f)
		}
	}
	if !strings.Contains(text.String(), "what-if analysis: cholesky_splash2 x4") {
		t.Error("text header missing")
	}
	if i, j := strings.Index(text.String(), HalveLockHold), strings.Index(text.String(), DoubleLLC); i < 0 || j < 0 || i > j {
		t.Error("text report does not list predictions in rank order")
	}
	var decoded map[string]any
	if err := json.Unmarshal(jsonb.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON encoding not valid JSON: %v", err)
	}
	for _, key := range []string{"benchmark", "threads", "baseline_speedup", "baseline_estimated", "predictions"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}
	if _, ok := decoded["Bars"]; ok {
		t.Error("Bars leaked into the JSON wire form")
	}
	wantHeader := "benchmark,threads,baseline_speedup,intervention,component,mutation,predicted_speedup,actual_speedup,predicted_gain,actual_gain,error"
	if got := strings.SplitN(csvb.String(), "\n", 2)[0]; got != wantHeader {
		t.Errorf("CSV header %q, want %q", got, wantHeader)
	}
	if !strings.HasPrefix(svgb.String(), "<svg") && !strings.Contains(svgb.String(), "<svg") {
		t.Error("SVG output lacks an <svg> element")
	}
}

// TestEncodeSVGNeedsBars: the SVG encoder needs the re-simulated stacks; a
// bar-less report (e.g. decoded from JSON) must error, not emit an empty
// chart.
func TestEncodeSVGNeedsBars(t *testing.T) {
	rep := testReport()
	rep.Bars = nil
	if err := Encode(&bytes.Buffer{}, stack.FormatSVG, rep); err == nil {
		t.Error("SVG encoding of a bar-less report succeeded")
	}
}
