package scaling

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stack"
	"repro/internal/workload"
)

// amdahlPoints samples an exact Amdahl curve.
func amdahlPoints(sigma float64, threads ...int) []Point {
	pts := make([]Point, len(threads))
	for i, n := range threads {
		pts[i] = Point{Threads: n, Speedup: float64(n) / (1 + sigma*float64(n-1))}
	}
	return pts
}

// uslPoints samples an exact USL curve.
func uslPoints(sigma, kappa float64, threads ...int) []Point {
	pts := make([]Point, len(threads))
	for i, n := range threads {
		nf := float64(n)
		pts[i] = Point{Threads: n, Speedup: nf / (1 + sigma*(nf-1) + kappa*nf*(nf-1))}
	}
	return pts
}

func TestFitTooFewPoints(t *testing.T) {
	cases := [][]Point{
		nil,
		{{1, 1}},
		{{1, 1}, {16, 8}},          // below MinPoints
		{{1, 1}, {1, 1}, {16, 8}},  // duplicate thread count
		{{1, 1}, {16, 8}, {8, 6}},  // not ascending
		{{1, 1}, {2, 0}, {4, 3}},   // non-positive speedup
		{{1, 1}, {2, 1.9}, {2, 2}}, // only one distinct multi-threaded count
	}
	for i, pts := range cases {
		if _, err := FitAmdahl(pts); err == nil {
			t.Errorf("case %d: FitAmdahl accepted %v", i, pts)
		}
		if _, err := FitUSL(pts); err == nil {
			t.Errorf("case %d: FitUSL accepted %v", i, pts)
		}
	}
}

// TestFitPerfectlyLinear is the κ→0 edge: ideal data must fit σ=0, κ=0 with
// no division blowup, an unbounded N* (encoded as 0), and classify linear.
func TestFitPerfectlyLinear(t *testing.T) {
	pts := amdahlPoints(0, 1, 2, 4, 8, 16)
	amdahl, err := FitAmdahl(pts)
	if err != nil {
		t.Fatal(err)
	}
	usl, err := FitUSL(pts)
	if err != nil {
		t.Fatal(err)
	}
	if amdahl.Sigma != 0 || usl.Sigma != 0 || usl.Kappa != 0 {
		t.Errorf("ideal data fit sigma=%v/%v kappa=%v, want zeros", amdahl.Sigma, usl.Sigma, usl.Kappa)
	}
	if usl.NStar() != 0 {
		t.Errorf("NStar = %v, want 0 (unbounded)", usl.NStar())
	}
	for _, f := range []Fit{amdahl, usl} {
		if math.IsNaN(f.R2) || math.IsInf(f.R2, 0) || f.R2 != 1 || f.RMSE != 0 {
			t.Errorf("ideal fit quality R2=%v RMSE=%v, want 1 and 0", f.R2, f.RMSE)
		}
	}
	if class, _ := Classify(pts); class != ClassLinear {
		t.Errorf("class = %s, want linear", class)
	}
}

func TestFitRecoversAmdahl(t *testing.T) {
	const sigma = 0.08
	f, err := FitAmdahl(amdahlPoints(sigma, 1, 2, 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Sigma-sigma) > 1e-9 {
		t.Errorf("recovered sigma %v, want %v", f.Sigma, sigma)
	}
	u, err := FitUSL(amdahlPoints(sigma, 1, 2, 4, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Sigma-sigma) > 1e-9 || math.Abs(u.Kappa) > 1e-12 {
		t.Errorf("USL on Amdahl data: sigma=%v kappa=%v, want %v and 0", u.Sigma, u.Kappa, sigma)
	}
}

func TestFitRecoversUSL(t *testing.T) {
	const sigma, kappa = 0.05, 0.004
	f, err := FitUSL(uslPoints(sigma, kappa, 1, 2, 4, 8, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Sigma-sigma) > 1e-9 || math.Abs(f.Kappa-kappa) > 1e-9 {
		t.Errorf("recovered sigma=%v kappa=%v, want %v and %v", f.Sigma, f.Kappa, sigma, kappa)
	}
	wantN := math.Sqrt((1 - sigma) / kappa)
	if math.Abs(f.NStar()-wantN) > 1e-6 {
		t.Errorf("NStar = %v, want %v", f.NStar(), wantN)
	}
	if f.R2 < 0.9999 {
		t.Errorf("exact data R2 = %v", f.R2)
	}
}

// TestFitNegativeScaling: a curve that turns over classifies negative and
// still produces a constrained, finite fit.
func TestFitNegativeScaling(t *testing.T) {
	pts := []Point{{1, 1}, {2, 1.8}, {4, 2.8}, {8, 2.2}, {16, 1.2}}
	usl, err := FitUSL(pts)
	if err != nil {
		t.Fatal(err)
	}
	class, peak := Classify(pts)
	if class != ClassNegative {
		t.Errorf("class = %s, want negative", class)
	}
	if peak.Threads != 4 || peak.Speedup != 2.8 {
		t.Errorf("peak = %.2f@%d, want 2.80@4", peak.Speedup, peak.Threads)
	}
	if usl.Kappa <= 0 {
		t.Errorf("turnover curve fit kappa=%v, want > 0", usl.Kappa)
	}
	if n := usl.NStar(); n <= 0 || n >= 16 {
		t.Errorf("NStar = %v, want inside the swept range", n)
	}
	if usl.Sigma < 0 || usl.Sigma > 1 {
		t.Errorf("sigma=%v outside [0,1]", usl.Sigma)
	}
}

// TestFitSuperlinear: speedup above ideal drives the unconstrained solution
// negative; the constrained refit must stay in the feasible region.
func TestFitSuperlinear(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2.2}, {4, 4.4}, {8, 8.8}}
	for _, fit := range []func([]Point) (Fit, error){FitAmdahl, FitUSL} {
		f, err := fit(pts)
		if err != nil {
			t.Fatal(err)
		}
		if f.Sigma < 0 || f.Sigma > 1 || f.Kappa < 0 {
			t.Errorf("superlinear data fit %+v escapes constraints", f)
		}
	}
}

func TestClassifyBoundaries(t *testing.T) {
	cases := []struct {
		pts  []Point
		want Class
	}{
		{amdahlPoints(0.02, 1, 2, 4, 8, 16), ClassLinear}, // S16=12.3, eff 0.77
		{amdahlPoints(0.2, 1, 2, 4, 8, 16), ClassSaturated},
		{[]Point{{1, 1}, {2, 1.9}, {4, 3.0}, {8, 3.2}, {16, 2.0}}, ClassNegative},
		// Exactly the paper's good-scaling boundary: 10x at 16.
		{[]Point{{1, 1}, {2, 2}, {4, 3.9}, {8, 7}, {16, 10}}, ClassLinear},
	}
	for i, c := range cases {
		if got, _ := Classify(c.pts); got != c.want {
			t.Errorf("case %d: Classify = %s, want %s", i, got, c.want)
		}
	}
}

func TestSigmaFromStack(t *testing.T) {
	// A stack losing fraction s of capacity to serialization implies
	// sigma = s/((1-s)(N-1)); check the round trip through an Amdahl curve:
	// at sigma=0.1, N=16, the lost fraction is sigma*15/(1+sigma*15) = 0.6.
	st := core.Stack{N: 16, Tp: 1000, Components: core.Components{Spin: 3600, Yield: 3600, Imbalance: 2400}}
	got := SigmaFromStack(st)
	if math.Abs(got-0.1) > 1e-9 {
		t.Errorf("SigmaFromStack = %v, want 0.1", got)
	}
	if SigmaFromStack(core.Stack{N: 1, Tp: 100}) != 0 {
		t.Error("single-threaded stack should imply sigma 0")
	}
	over := core.Stack{N: 2, Tp: 100, Components: core.Components{Spin: 300}}
	if s := SigmaFromStack(over); s != 1 {
		t.Errorf("overloaded stack sigma = %v, want clamp to 1", s)
	}
}

func TestBuildCrossCheckAndRecommendations(t *testing.T) {
	b, ok := workload.ByName("cholesky_splash2")
	if !ok {
		t.Fatal("cholesky_splash2 not registered")
	}
	pts := amdahlPoints(0.12, 1, 2, 4, 8, 16)
	// A spinning-dominated stack whose implied sigma (~0.117) matches the fit.
	st := core.Stack{N: 16, Tp: 1000, Components: core.Components{Spin: 8000, Yield: 1500, Imbalance: 500}}
	a, err := Build(b.FullName(), b.Spec, pts, st)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SigmaAgrees {
		t.Errorf("sigma %.4f vs stack %.4f should agree", a.Amdahl.Sigma, a.SigmaStack)
	}
	if a.Bottleneck != stack.CompSpinning {
		t.Errorf("bottleneck = %q, want spinning", a.Bottleneck)
	}
	if len(a.Recommendations) == 0 {
		t.Fatal("no recommendations for a spinning-dominated stack")
	}
	top := a.Recommendations[0]
	if top.Component != stack.CompSpinning {
		t.Errorf("top recommendation component = %q, want spinning", top.Component)
	}
	if top.Field == "" || top.Action == "" || top.Detail == "" {
		t.Errorf("recommendation missing fields: %+v", top)
	}
	if top.Impact < a.Recommendations[len(a.Recommendations)-1].Impact {
		t.Error("recommendations not ranked by impact")
	}
	// Disagreement: a steep serialized-looking curve whose stack blames
	// memory instead — the fitted sigma has no serialization to match.
	memSt := core.Stack{N: 16, Tp: 1000, Components: core.Components{NegMem: 9000}}
	d, err := Build(b.FullName(), b.Spec, amdahlPoints(0.25, 1, 2, 4, 8, 16), memSt)
	if err != nil {
		t.Fatal(err)
	}
	if d.SigmaAgrees {
		t.Errorf("memory-only stack (implied sigma %.4f) should disagree with fitted %.4f", d.SigmaStack, d.Amdahl.Sigma)
	}
	if d.Bottleneck != stack.CompMemory {
		t.Errorf("bottleneck = %q, want memory", d.Bottleneck)
	}
}

func TestRecommendationFieldsPerFamily(t *testing.T) {
	cases := []struct {
		bench     string
		component string
		wantField string
	}{
		{"cholesky_splash2", stack.CompSpinning, "dispatch_instr"}, // task queue
		{"ferret_parsec_small", stack.CompYielding, "stages["},     // pipeline serial stage
		{"lud_rodinia", stack.CompYielding, "effective_parallelism"},
		{"srad_rodinia", stack.CompMemory, "instr_per_access"},
		{"fft_splash2", stack.CompCache, "array_bytes"},
	}
	for _, c := range cases {
		b, ok := workload.ByName(c.bench)
		if !ok {
			t.Fatalf("%s not registered", c.bench)
		}
		r := recommendOne(&b.Spec, c.component, Fit{Sigma: 0.1, Kappa: 0.005})
		if !strings.HasPrefix(r.Field, c.wantField) {
			t.Errorf("%s/%s: field %q, want prefix %q", c.bench, c.component, r.Field, c.wantField)
		}
		if r.Action == "" || r.Detail == "" {
			t.Errorf("%s/%s: empty action or detail", c.bench, c.component)
		}
	}
}

func TestEncodeFormats(t *testing.T) {
	b, _ := workload.ByName("lud_rodinia")
	st := core.Stack{N: 16, Tp: 1000, Components: core.Components{Yield: 6000, Imbalance: 1000}}
	a, err := Build(b.FullName(), b.Spec, amdahlPoints(0.1, 1, 2, 4, 8, 16), st)
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := Encode(&txt, stack.FormatText, a); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lud_rodinia", "sigma", "recommendations", "n*"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, txt.String())
		}
	}
	var js bytes.Buffer
	if err := Encode(&js, stack.FormatJSON, a); err != nil {
		t.Fatal(err)
	}
	var decoded Advice
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if decoded.Benchmark != a.Benchmark || decoded.Class != a.Class ||
		len(decoded.Recommendations) != len(a.Recommendations) {
		t.Error("JSON round trip lost fields")
	}
	var csvb bytes.Buffer
	if err := Encode(&csvb, stack.FormatCSV, a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvb.String()), "\n")
	if len(lines) != 1+len(a.Points) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+len(a.Points))
	}
	if !strings.HasPrefix(lines[0], "benchmark,threads,measured") {
		t.Errorf("CSV header: %s", lines[0])
	}
	var svg bytes.Buffer
	if err := Encode(&svg, stack.FormatSVG, a); err != nil {
		t.Fatal(err)
	}
	s := svg.String()
	if !strings.HasPrefix(s, "<svg ") || !strings.HasSuffix(s, "</svg>\n") {
		t.Error("SVG output is not a standalone document")
	}
	for _, want := range []string{"measured", "amdahl", "usl", "circle"} {
		if !strings.Contains(s, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if err := Encode(&svg, stack.Format("nope"), a); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestDegenerateSweepTyped pins the typed failure contract: a sweep the
// fitter cannot use — empty, or effectively N=1-only — fails both fitters,
// and so Build, which fits first, with an error matching ErrDegenerateSweep,
// so callers (the advise endpoint, the experiments section) can branch on it
// instead of string matching, and no Inf/NaN Advice ever reaches an encoder.
func TestDegenerateSweepTyped(t *testing.T) {
	degenerate := [][]Point{
		nil,
		{{1, 1}},         // the N=1-only sweep
		{{1, 1}, {2, 2}}, // one multi-threaded point: USL is underdetermined
	}
	for i, pts := range degenerate {
		for name, fit := range map[string]func([]Point) (Fit, error){
			"FitAmdahl": FitAmdahl, "FitUSL": FitUSL,
		} {
			if _, err := fit(pts); !errors.Is(err, ErrDegenerateSweep) {
				t.Errorf("case %d: %s error %v does not match ErrDegenerateSweep", i, name, err)
			}
		}
	}
	// Malformed-but-sufficient sweeps are a different failure: they must NOT
	// claim to be degenerate.
	if _, err := FitAmdahl([]Point{{1, 1}, {16, 8}, {8, 6}}); err == nil || errors.Is(err, ErrDegenerateSweep) {
		t.Errorf("non-ascending sweep error %v should not match ErrDegenerateSweep", err)
	}
}

// TestEncodeRecommendationWhatIfLine: a recommendation carrying an attached
// what-if prediction renders it in the text report; one without stays
// silent.
func TestEncodeRecommendationWhatIfLine(t *testing.T) {
	b, _ := workload.ByName("lud_rodinia")
	st := core.Stack{N: 16, Tp: 1000, Components: core.Components{Yield: 6000, Imbalance: 1000}}
	a, err := Build(b.FullName(), b.Spec, amdahlPoints(0.1, 1, 2, 4, 8, 16), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Recommendations) == 0 {
		t.Fatal("no recommendations")
	}
	var plain bytes.Buffer
	if err := Encode(&plain, stack.FormatText, a); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "what-if:") {
		t.Error("what-if line rendered without an attached prediction")
	}
	a.Recommendations[0].Intervention = "remove_imbalance"
	a.Recommendations[0].PredictedGain = 1.25
	var withIv bytes.Buffer
	if err := Encode(&withIv, stack.FormatText, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withIv.String(), "what-if: remove_imbalance predicts +1.25 speedup") {
		t.Errorf("attached prediction not rendered:\n%s", withIv.String())
	}
	// And the fields survive the JSON wire form.
	var js bytes.Buffer
	if err := Encode(&js, stack.FormatJSON, a); err != nil {
		t.Fatal(err)
	}
	var decoded Advice
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Recommendations[0].Intervention != "remove_imbalance" ||
		decoded.Recommendations[0].PredictedGain != 1.25 {
		t.Error("intervention fields lost in JSON round trip")
	}
}
