package speedupstack

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

var ctx = context.Background()

func TestBenchmarksListed(t *testing.T) {
	// 28 paper analogues + the 10-pattern contention suite: the lookup
	// registry lists both (the figure set stays 28 — see workload.All).
	names := Benchmarks()
	if len(names) != 38 {
		t.Fatalf("benchmarks = %d, want 38", len(names))
	}
}

func TestMeasureUnknownBenchmark(t *testing.T) {
	if _, err := Measure(ctx, Request{Bench: "no-such-benchmark", Threads: 4}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// Near-miss names carry the nearest registered name, so the CLI (which
	// prints this error verbatim) suggests the fix.
	_, err := Measure(ctx, Request{Bench: "choleski", Threads: 4})
	if err == nil || !strings.Contains(err.Error(), `did you mean "cholesky"?`) {
		t.Fatalf("no suggestion in %v", err)
	}
}

// specJSON is a custom workload the registry has never seen.
const specJSON = `{"name":"roottest","kind":"data_parallel","array_bytes":524288,
	"sweeps_per_phase":1,"phases":1,"instr_per_access":2500,"store_frac":0.1,"seed":5}`

func TestParseWorkloadAndMeasure(t *testing.T) {
	w, err := ParseWorkload([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Measure(ctx, Request{Workload: &w, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "roottest" || res.Stack.N != 4 {
		t.Fatalf("unexpected result identity: %+v", res)
	}
	if res.Stack.ActualSpeedup <= 1 {
		t.Fatalf("implausible speedup %v", res.Stack.ActualSpeedup)
	}

	// MeasureAll: two names, one behaviour -> same stacks, own labels.
	w2 := w
	w2.Name = "roottest-twin"
	results, err := MeasureAll(ctx, []Request{{Workload: &w, Threads: 4}, {Workload: &w2, Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Benchmark != "roottest" || results[1].Benchmark != "roottest-twin" {
		t.Fatalf("unexpected results: %+v", results)
	}
	if results[0].Stack != results[1].Stack {
		t.Fatal("fingerprint-identical workloads measured differently")
	}
	if results[0].Stack != res.Stack {
		t.Fatal("MeasureAll disagrees with Measure")
	}
}

func TestParseWorkloadRejects(t *testing.T) {
	if _, err := ParseWorkload([]byte(`{"name":"x","kind":"data_parallel"}`)); err == nil {
		t.Fatal("invalid workload accepted")
	}
	if _, err := ParseWorkload([]byte(`{"name":"x","kind":"data_parallel","array_byts":64}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestMeasureAndRender(t *testing.T) {
	res, err := Measure(ctx, Request{Bench: "swaptions_parsec_small", Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack.N != 16 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	if res.Stack.ActualSpeedup <= 1 {
		t.Fatalf("actual speedup %v", res.Stack.ActualSpeedup)
	}
	out := Render(res)
	if !strings.Contains(out, "swaptions_parsec_small") || !strings.Contains(out, "legend:") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
	tbl := Table(res)
	if !strings.Contains(tbl, "yield") {
		t.Fatalf("table output incomplete:\n%s", tbl)
	}
	if tops := TopBottlenecks(res, 3); len(tops) == 0 {
		t.Fatal("no bottlenecks reported for a skewed benchmark")
	}
}

// TestFastRequest pins the root fast-mode API: sampled runs produce a
// well-formed stack within the documented bounds of the exact result, both
// for registered analogues and custom specs, and are themselves
// deterministic.
func TestFastRequest(t *testing.T) {
	exact, err := Measure(ctx, Request{Bench: "swaptions_parsec_small", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	fastReq := Request{Bench: "swaptions_parsec_small", Threads: 8, Fast: true}
	fast, err := Measure(ctx, fastReq)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stack.N != 8 {
		t.Fatalf("unexpected shape: %+v", fast)
	}
	if d := fast.Stack.Estimated() - exact.Stack.Estimated(); d > 3.6 || d < -3.6 {
		t.Fatalf("fast estimate %v too far from exact %v",
			fast.Stack.Estimated(), exact.Stack.Estimated())
	}
	again, err := Measure(ctx, fastReq)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stack != fast.Stack {
		t.Fatal("fast mode is not deterministic")
	}

	w, err := ParseWorkload([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Measure(ctx, Request{Workload: &w, Threads: 4, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if sf.Benchmark != "roottest" || sf.Stack.N != 4 {
		t.Fatalf("unexpected spec result: %+v", sf)
	}
	if err := RecordTrace(io.Discard, fastReq); err == nil {
		t.Fatal("a fast run was recorded as a trace")
	}
}

// TestRequestValidation pins the one-seam guarantee: a malformed Request,
// or a fast one for an analysis that needs the exact machine, fails with
// the same text at every door, before any simulation.
func TestRequestValidation(t *testing.T) {
	w, err := ParseWorkload([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	bad := w
	bad.ArrayBytes = 0
	for _, tc := range []struct {
		name string
		req  Request
		want string
		// shape marks a run-shape row. Advise ignores Request.Threads: its
		// sweep top is judged by the engine alone, and cmd/speedup-stack's
		// TestAdviseRangeOneText holds every door to that text.
		shape bool
	}{
		{"neither", Request{Threads: 4}, `unknown benchmark ""`, false},
		{"both", Request{Bench: "cholesky", Workload: &w, Threads: 4}, "give bench or spec, not both", false},
		{"zero threads", Request{Bench: "cholesky"}, "threads must be in [1,256], got 0", true},
		{"negative threads", Request{Workload: &w, Threads: -2}, "threads must be in [1,256], got -2", true},
		{"too many threads", Request{Bench: "cholesky", Threads: 65}, "threads 65 exceeds the simulator's 64-core limit", true},
		{"unknown bench", Request{Bench: "choleski", Threads: 4}, `did you mean "cholesky"?`, false},
		{"invalid workload", Request{Workload: &bad, Threads: 4}, "array_bytes", false},
		// The workload is judged before the run shape.
		{"unknown bench, zero threads", Request{Bench: "choleski"}, `did you mean "cholesky"?`, false},
		{"invalid workload, zero threads", Request{Workload: &bad}, "array_bytes", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Measure(ctx, tc.req)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Measure: error %v, want one containing %q", err, tc.want)
			}
			doors := map[string]func() error{
				"MeasureAll": func() error {
					_, err := MeasureAll(ctx, []Request{{Bench: "cholesky", Threads: 2}, tc.req})
					return err
				},
				"MeasureIntervals": func() error { _, err := MeasureIntervals(ctx, tc.req, 4); return err },
				"WhatIf":           func() error { _, err := WhatIf(ctx, tc.req); return err },
				"RecordTrace":      func() error { return RecordTrace(io.Discard, tc.req) },
			}
			if !tc.shape {
				doors["Advise"] = func() error { _, err := Advise(ctx, tc.req, tc.req.Threads); return err }
			}
			for door, call := range doors {
				if got := call(); got == nil || got.Error() != err.Error() {
					t.Errorf("%s: error %v, want %v", door, got, err)
				}
			}
		})
	}

	// The engine alone refuses the sampled machine for the advisor and the
	// what-if engine, before any simulation; speedupd answers the same text
	// (the CLI's stderr line is pinned to it in cmd/speedup-stack).
	e := exp.NewEngine(sim.Default())
	srv := service.New(service.Options{Engine: e}).Handler()
	fast := Request{Bench: "cholesky", Threads: 4, Fast: true}
	for _, tc := range []struct {
		name                 string
		call                 func() error
		method, target, body string
	}{
		{"fast Advise", func() error { _, err := Advise(ctx, fast, 4); return err },
			"GET", "/v1/advise?bench=cholesky&max_threads=4&mode=fast", ""},
		{"fast WhatIf", func() error { _, err := WhatIf(ctx, fast); return err },
			"POST", "/v1/whatif?mode=fast", `{"bench":"cholesky","threads":4}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var refused *exp.RequestError
			if !errors.As(err, &refused) {
				t.Fatalf("error %T (%v), want *exp.RequestError", err, err)
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			var env struct {
				Error struct{ Code, Message string }
			}
			if jerr := json.Unmarshal(w.Body.Bytes(), &env); jerr != nil || w.Code != http.StatusBadRequest ||
				env.Error.Code != "invalid_argument" || env.Error.Message != err.Error() {
				t.Errorf("speedupd: status %d, body %s; want 400 invalid_argument %q", w.Code, w.Body, err)
			}
			if st := e.Stats(); st.CellRuns+st.SeqRuns != 0 {
				t.Errorf("speedupd simulated a refused request: %+v", st)
			}
		})
	}
}

// TestBenchAndWorkloadAgree checks that naming a registered analogue and
// passing its spec as a Workload are the same measurement, in both modes.
func TestBenchAndWorkloadAgree(t *testing.T) {
	const bench = "swaptions_parsec_small"
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("%s is not registered", bench)
	}
	for _, fast := range []bool{false, true} {
		rs, err := MeasureAll(ctx, []Request{
			{Bench: bench, Threads: 4, Fast: fast},
			{Workload: &b.Spec, Threads: 4, Fast: fast},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0] != rs[1] {
			t.Errorf("fast=%v: by name %+v, by spec %+v", fast, rs[0], rs[1])
		}
	}
}

// TestAPISurface lists the root package's exported identifiers against a
// golden list, so the surface only grows by a reviewed diff.
func TestAPISurface(t *testing.T) {
	want := strings.Fields(`
		Advice AdviceClass AdviceFit AdviceLinear AdviceNegative AdvicePoint
		AdviceRecommendation AdviceSaturated Advise Benchmarks Components
		DefaultIntervals DefaultThreads Document Encode Format FormatCSV
		FormatJSON FormatSVG FormatText Formats HardwareCost
		IntervalComponents Interventions LoadTrace MaxAdviseThreads
		MaxIntervals Measure MeasureAll MeasureIntervals MinAdviseThreads
		MinWhatIfThreads ParseFormat ParseWorkload RecordTrace Render Request
		Result Stack StackRow Stacks Table TimeSeries TimeSeriesInterval
		TimeSeriesReport TopBottlenecks WhatIf WhatIfDoubleLLC
		WhatIfHalveLockHold WhatIfHalveMemLatency WhatIfIntervention
		WhatIfPrediction WhatIfRemoveImbalance WhatIfReport Workload
		WorkloadDataParallel WorkloadFingerprint WorkloadKind
		WorkloadPipeline WorkloadStage WorkloadTaskQueue`)
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("exported identifiers changed; review the diff and update the list\n got: %v\nwant: %v", got, want)
	}
}

func TestMeasureAllBatch(t *testing.T) {
	reqs := []Request{
		{Bench: "swaptions_parsec_small", Threads: 2},
		{Bench: "swaptions_parsec_small", Threads: 4},
		{Bench: "blackscholes_parsec_small", Threads: 2},
		{Bench: "blackscholes_parsec_small", Threads: 4},
	}
	results, err := MeasureAll(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	// Results come back in request order.
	for i, r := range reqs {
		if results[i].Benchmark != r.Bench || results[i].Stack.N != r.Threads {
			t.Fatalf("result %d = %s x%d, want %s x%d",
				i, results[i].Benchmark, results[i].Stack.N, r.Bench, r.Threads)
		}
		if results[i].Stack.ActualSpeedup <= 1 {
			t.Fatalf("%s x%d speedup %v", r.Bench, r.Threads, results[i].Stack.ActualSpeedup)
		}
	}
}

func TestMeasureAllUnknownBenchmark(t *testing.T) {
	if _, err := MeasureAll(ctx, []Request{{Bench: "no-such-benchmark", Threads: 2}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestFigurePathSmoke is the CI smoke gate: it exercises the end-to-end
// figure path (cell declaration, sweep engine, simulator, stack assembly,
// text rendering) on a grid small enough for every PR.
func TestFigurePathSmoke(t *testing.T) {
	res, err := MeasureAll(ctx, []Request{{Bench: "swaptions_parsec_small", Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out := Render(res[0]); !strings.Contains(out, "legend:") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
}

func TestHardwareCost(t *testing.T) {
	hw := HardwareCost()
	if hw.InterferenceBytes() != 952 || hw.SpinTableBytes != 217 {
		t.Fatalf("budget mismatch: %+v", hw)
	}
}

// TestLoadTraceReadsAtItsLength holds LoadTrace to about the size of the
// trace it reads: a ~2 MB trace loaded from a reader, as speedup-stack's
// -trace flag loads a file, allocates at most 1.3 times its size, decode
// included, since each stream is read once into the chunks the workload
// keeps. Read whole and then decoded, at the length the reader reported, it
// allocated about 2.06 times; through io.ReadAll, about 5.4 times.
func TestLoadTraceReadsAtItsLength(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordTrace(&buf, Request{Bench: "blackscholes_parsec_small", Threads: 2}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var r bytes.Reader
	n := loadBytes(t, &r, data, nil)
	t.Logf("loading a %d-byte trace allocates %.0f bytes (%.2f times)", len(data), n, n/float64(len(data)))
	if n > 1.3*float64(len(data)) {
		t.Errorf("loading a %d-byte trace allocated %.0f bytes, want <= 1.3 times its size", len(data), n)
	}
}

// TestLoadTraceHostileLength: a trace whose one stream declares 30 MiB and
// carries 1 KiB costs LoadTrace at most 128 KiB — what arrives bounds the
// cost, never what the trace declares — and fails with the positioned
// length error.
func TestLoadTraceHostileLength(t *testing.T) {
	data := append([]byte("SPTR\x01\x00\x00\x00\x00\x00\x00\x01\x01\x80\x80\x80\x0f"), make([]byte, 1<<10)...)
	const want = "trace: thread 0 stream: trace: stream length 31457280 exceeds the 1024 bytes remaining"
	var r bytes.Reader
	n := loadBytes(t, &r, data, func(err error) {
		if err == nil || err.Error() != want {
			t.Fatalf("LoadTrace: %v, want %q", err, want)
		}
	})
	t.Logf("1 KiB of a stream declared at 30 MiB allocates %.0f bytes", n)
	if n > 128<<10 {
		t.Errorf("1 KiB of a stream declared at 30 MiB allocated %.0f bytes, want <= %d", n, 128<<10)
	}
}

// loadBytes is the mean bytes one LoadTrace of data through r allocates,
// after a first load; check judges each load's error (nil: none allowed).
func loadBytes(t *testing.T, r *bytes.Reader, data []byte, check func(error)) float64 {
	t.Helper()
	if check == nil {
		check = func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	load := func() {
		r.Reset(data)
		_, err := LoadTrace(r)
		check(err)
	}
	load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 3 {
		load()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 3
}
