package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestFaultPrecedence pins what every refused request answers, whichever
// layer judges it. A single-fault row (msg set) pins status, code and the
// exact message; a multi-fault row (msg empty) pins status and code, so the
// order in which faults are judged may change only between equally-coded
// refusals. No row may cost a simulation.
func TestFaultPrecedence(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	const (
		bad      = http.StatusBadRequest
		notFound = http.StatusNotFound
		inv      = codeInvalidArgument
		unkBench = codeUnknownBenchmark
		unkIv    = codeUnknownIntervention
	)
	nosuch := workload.UnknownBenchmarkError("nosuch").Error()
	noName := workload.UnknownBenchmarkError("").Error()
	_, ivErr := whatif.ByID("triple_llc")
	tripleLLC := ivErr.Error()
	spec := testSpecJSON
	badSpec := `{"name":"x","kind":"data_parallel"}`
	trace := string(recordTestTrace(t, 2))
	stackQ := "/v1/stack?bench=" + testBench
	intervalsQ := "/v1/stack/intervals?bench=" + testBench + "&threads=2"
	adviseQ := "/v1/advise?bench=" + testBench

	type row struct {
		name, method, target, body string
		status                     int
		code, msg                  string
	}
	rows := []row{
		// GET /v1/stack
		{"stack threads 0", "GET", stackQ + "&threads=0", "", bad, inv, "threads must be in [1,256], got 0"},
		{"stack threads 300", "GET", stackQ + "&threads=300", "", bad, inv, "threads must be in [1,256], got 300"},
		{"stack threads 65", "GET", stackQ + "&threads=65", "", bad, inv,
			"threads 65 exceeds the simulator's 64-core limit; pass an explicit cores"},
		{"stack cores 65", "GET", stackQ + "&threads=2&cores=65", "", bad, inv, "cores must be in [0,64], got 65"},
		{"stack unknown bench", "GET", "/v1/stack?bench=nosuch&threads=2", "", notFound, unkBench, nosuch},
		{"stack unknown bench + threads 0", "GET", "/v1/stack?bench=nosuch&threads=0", "", notFound, unkBench, ""},
		{"stack threads 0 + bad mode", "GET", stackQ + "&threads=0&mode=bogus", "", bad, inv, ""},

		// GET /v1/stack/intervals
		{"intervals 0", "GET", intervalsQ + "&intervals=0", "", bad, inv, "intervals must be in [1,512], got 0"},
		{"intervals -1", "GET", intervalsQ + "&intervals=-1", "", bad, inv, "intervals must be in [1,512], got -1"},
		{"intervals 513", "GET", intervalsQ + "&intervals=513", "", bad, inv, "intervals must be in [1,512], got 513"},
		{"intervals 4096", "GET", intervalsQ + "&intervals=4096", "", bad, inv, "intervals must be in [1,512], got 4096"},
		{"intervals not a number", "GET", intervalsQ + "&intervals=lots", "", bad, inv,
			`bad intervals "lots": strconv.Atoi: parsing "lots": invalid syntax`},
		{"intervals threads 0", "GET", "/v1/stack/intervals?bench=" + testBench + "&threads=0", "", bad, inv,
			"threads must be in [1,256], got 0"},
		{"intervals unknown bench + 0", "GET", "/v1/stack/intervals?bench=nosuch&threads=2&intervals=0", "",
			notFound, unkBench, ""},
		{"intervals threads 0 + 0", "GET", "/v1/stack/intervals?bench=" + testBench + "&threads=0&intervals=0", "",
			bad, inv, ""},
		{"intervals 0 + bad mode", "GET", intervalsQ + "&intervals=0&mode=bogus", "", bad, inv, ""},

		// POST /v1/workloads/analyze
		{"analyze intervals 513", "POST", "/v1/workloads/analyze", `{"spec":` + spec + `,"threads":2,"intervals":513}`,
			bad, inv, "intervals must be in [1,512], got 513"},
		{"analyze intervals -1", "POST", "/v1/workloads/analyze", `{"spec":` + spec + `,"threads":2,"intervals":-1}`,
			bad, inv, "intervals must be in [1,512], got -1"},
		{"analyze threads 0", "POST", "/v1/workloads/analyze", `{"spec":` + spec + `,"threads":0}`,
			bad, inv, "threads must be in [1,256], got 0"},
		{"analyze bench", "POST", "/v1/workloads/analyze", `{"bench":"cholesky","threads":2}`,
			bad, inv, "missing spec (POST {\"spec\":{...},\"threads\":N})"},
		{"analyze bench and spec", "POST", "/v1/workloads/analyze", `{"bench":"cholesky","spec":` + spec + `,"threads":2}`,
			bad, inv, "analyze takes a spec, not a bench name (use /v1/stack)"},
		{"analyze threads 0 + intervals 513", "POST", "/v1/workloads/analyze",
			`{"spec":` + spec + `,"threads":0,"intervals":513}`, bad, inv, ""},
		{"analyze bad spec + intervals 513", "POST", "/v1/workloads/analyze",
			`{"spec":` + badSpec + `,"threads":2,"intervals":513}`, bad, inv, ""},

		// POST /v1/traces/analyze
		{"trace garbage", "POST", "/v1/traces/analyze", "not a trace", bad, inv, ""},
		{"trace cores 65", "POST", "/v1/traces/analyze?cores=65", trace, bad, inv, "cores must be in [0,64], got 65"},
		{"trace cores -1", "POST", "/v1/traces/analyze?cores=-1", trace, bad, inv, "cores must be in [0,64], got -1"},
		{"trace cores 65 + bad mode", "POST", "/v1/traces/analyze?cores=65&mode=bogus", trace, bad, inv, ""},
		{"trace cores not a number + bad mode", "POST", "/v1/traces/analyze?cores=lots&mode=bogus", trace, bad, inv, ""},
		{"trace garbage + cores 65", "POST", "/v1/traces/analyze?cores=65", "not a trace", bad, inv, ""},

		// GET /v1/advise
		{"advise max 2", "GET", adviseQ + "&max_threads=2", "", bad, inv, "max_threads must be in [3,64], got 2"},
		{"advise max 65", "GET", adviseQ + "&max_threads=65", "", bad, inv, "max_threads must be in [3,64], got 65"},
		{"advise max not a number", "GET", adviseQ + "&max_threads=lots", "", bad, inv,
			`bad max_threads "lots": strconv.Atoi: parsing "lots": invalid syntax`},
		{"advise missing bench", "GET", "/v1/advise?max_threads=4", "", bad, inv, "missing bench parameter"},
		{"advise unknown bench", "GET", "/v1/advise?bench=nosuch", "", notFound, unkBench, nosuch},
		{"advise unknown bench + max 2", "GET", "/v1/advise?bench=nosuch&max_threads=2", "", notFound, unkBench, ""},
		{"advise max 2 + bad mode", "GET", adviseQ + "&max_threads=2&mode=bogus", "", bad, inv, ""},

		// POST /v1/whatif
		{"whatif threads 1", "POST", "/v1/whatif", `{"bench":"cholesky","threads":1}`, bad, inv,
			"what-if needs threads >= 2 (a single-threaded run has no scaling gap), got 1"},
		{"whatif spec threads 1", "POST", "/v1/whatif", `{"spec":` + spec + `,"threads":1}`, bad, inv,
			"what-if needs threads >= 2 (a single-threaded run has no scaling gap), got 1"},
		{"whatif unknown intervention", "POST", "/v1/whatif",
			`{"bench":"cholesky","threads":4,"interventions":["double_llc","triple_llc"]}`, notFound, unkIv, tripleLLC},
		{"whatif bench and spec", "POST", "/v1/whatif", `{"bench":"cholesky","spec":` + spec + `,"threads":4}`,
			bad, inv, "give bench or spec, not both"},
		{"whatif threads 0", "POST", "/v1/whatif", `{"bench":"cholesky","threads":0}`, bad, inv,
			"threads must be in [1,256], got 0"},
		{"whatif unknown bench", "POST", "/v1/whatif", `{"bench":"nosuch","threads":4}`, notFound, unkBench, nosuch},
		{"whatif threads 1 + unknown intervention", "POST", "/v1/whatif",
			`{"bench":"cholesky","threads":1,"interventions":["triple_llc"]}`, bad, inv, ""},
		{"whatif threads 0 + unknown intervention", "POST", "/v1/whatif",
			`{"bench":"cholesky","threads":0,"interventions":["triple_llc"]}`, bad, inv, ""},
		{"whatif unknown bench + threads 1", "POST", "/v1/whatif", `{"bench":"nosuch","threads":1}`, notFound, unkBench, ""},
		{"whatif unknown bench + unknown intervention", "POST", "/v1/whatif",
			`{"bench":"nosuch","threads":4,"interventions":["triple_llc"]}`, notFound, unkBench, ""},
		{"whatif bench and spec + threads 1", "POST", "/v1/whatif",
			`{"bench":"cholesky","spec":` + spec + `,"threads":1}`, bad, inv, ""},
		{"whatif bench and bad spec", "POST", "/v1/whatif",
			`{"bench":"cholesky","spec":` + badSpec + `,"threads":4}`, bad, inv, ""},
	}
	// POST /v1/sweep, buffered and streamed.
	for _, f := range []string{"", "?format=ndjson"} {
		sweep := "/v1/sweep" + f
		rows = append(rows,
			row{"sweep bench and spec" + f, "POST", sweep,
				`{"cells":[{"bench":"cholesky","spec":` + spec + `,"threads":2}]}`, bad, inv, "cell 0: give bench or spec, not both"},
			row{"sweep neither" + f, "POST", sweep, `{"cells":[{"bench":"cholesky","threads":2},{"threads":2}]}`,
				notFound, unkBench, "cell 1: " + noName},
			row{"sweep unknown bench" + f, "POST", sweep, `{"cells":[{"bench":"cholesky","threads":2},{"bench":"nosuch","threads":2}]}`,
				notFound, unkBench, "cell 1: " + nosuch},
			row{"sweep threads 0" + f, "POST", sweep, `{"cells":[{"bench":"cholesky","threads":0}]}`,
				bad, inv, "cell 0: threads must be in [1,256], got 0"},
			row{"sweep intervals" + f, "POST", sweep, `{"cells":[{"bench":"cholesky","threads":2,"intervals":4}]}`, bad, inv,
				"cell 0: sweeps return aggregate stacks; use /v1/stack/intervals or /v1/workloads/analyze for a time-resolved one"},
			row{"sweep bench and bad spec" + f, "POST", sweep,
				`{"cells":[{"bench":"cholesky","spec":` + badSpec + `,"threads":2}]}`, bad, inv, ""},
			row{"sweep bench and spec + threads 0" + f, "POST", sweep,
				`{"cells":[{"bench":"cholesky","spec":` + spec + `,"threads":0}]}`, bad, inv, ""},
			row{"sweep threads 0 then unknown bench" + f, "POST", sweep,
				`{"cells":[{"bench":"cholesky","threads":0},{"bench":"nosuch","threads":2}]}`, bad, inv, ""},
		)
	}

	for _, r := range rows {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
		if w.Code != r.status {
			t.Errorf("%s: status %d, want %d (%s)", r.name, w.Code, r.status, w.Body)
			continue
		}
		e := decodeEnvelope(t, w)
		if e.Code != r.code {
			t.Errorf("%s: code %q, want %q", r.name, e.Code, r.code)
		}
		if r.msg != "" && e.Message != r.msg {
			t.Errorf("%s: message %q, want %q", r.name, e.Message, r.msg)
		}
	}
	if st := s.Engine().Stats(); st.CellRuns+st.SeqRuns+st.IntervalRuns != 0 {
		t.Errorf("refused requests ran simulations: %+v", st)
	}
}
