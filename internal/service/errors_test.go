package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// decodeEnvelope decodes a structured error response, failing the test on
// anything that is not a well-formed envelope.
func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, w.Body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", w.Body)
	}
	return env.Error
}

// TestErrorEnvelopeShape pins the uniform failure contract: every /v1
// endpoint answers 4xx with {"error":{"code","message"[,"suggestion"]}} and
// a stable machine-readable code.
func TestErrorEnvelopeShape(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	cases := []struct {
		name     string
		method   string
		target   string
		body     string
		status   int
		code     string
		contains string
	}{
		{"bad format", http.MethodGet, "/v1/stack?bench=" + testBench + "&threads=2&format=bogus", "",
			http.StatusBadRequest, "invalid_argument", "bogus"},
		{"bad threads", http.MethodGet, "/v1/stack?bench=" + testBench + "&threads=zero", "",
			http.StatusBadRequest, "invalid_argument", "threads"},
		{"unknown param", http.MethodGet, "/v1/stack?bench=" + testBench + "&threads=2&thread=8", "",
			http.StatusBadRequest, "unknown_parameter", "bench, cores, format, mode, threads"},
		{"unknown bench", http.MethodGet, "/v1/stack?bench=nosuch&threads=2", "",
			http.StatusNotFound, "unknown_benchmark", "nosuch"},
		{"method not allowed", http.MethodGet, "/v1/sweep", "",
			http.StatusMethodNotAllowed, "method_not_allowed", "requires POST"},
		{"bad body", http.MethodPost, "/v1/sweep", "not json",
			http.StatusBadRequest, "invalid_argument", "bad body"},
		{"analyze missing spec", http.MethodPost, "/v1/workloads/analyze", `{"threads":2}`,
			http.StatusBadRequest, "invalid_argument", "missing spec"},
		{"advise unknown param", http.MethodGet, "/v1/advise?bench=" + testBench + "&threads=2", "",
			http.StatusBadRequest, "unknown_parameter", "bench, format, max_threads, mode"},
		{"benchmarks takes none", http.MethodGet, "/v1/benchmarks?format=json", "",
			http.StatusBadRequest, "unknown_parameter", "no query parameters"},
	}
	for _, c := range cases {
		var w *httptest.ResponseRecorder
		if c.method == http.MethodGet {
			w = get(t, h, c.target)
		} else {
			w = post(t, h, c.target, c.body)
		}
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
			continue
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: content type %q, want JSON envelope", c.name, ct)
		}
		e := decodeEnvelope(t, w)
		if e.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, e.Code, c.code)
		}
		if !strings.Contains(e.Message, c.contains) {
			t.Errorf("%s: message %q does not mention %q", c.name, e.Message, c.contains)
		}
	}
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("error paths ran %d simulations", st.CellRuns)
	}
}

// TestErrorSuggestionMachineReadable pins that the nearest-name hint is a
// field of the envelope, not just prose inside the message.
func TestErrorSuggestionMachineReadable(t *testing.T) {
	s, _ := newTestServer(t)
	w := get(t, s.Handler(), "/v1/stack?bench=choleski&threads=2")
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", w.Code, w.Body)
	}
	if e := decodeEnvelope(t, w); e.Suggestion != "cholesky" {
		t.Errorf("suggestion %q, want %q", e.Suggestion, "cholesky")
	}
	// A name nothing like any registered one carries no suggestion, and the
	// field is omitted rather than empty.
	w = get(t, s.Handler(), "/v1/stack?bench=zzzzzzzzzzzz&threads=2")
	if e := decodeEnvelope(t, w); e.Suggestion != "" {
		t.Errorf("far-off name got suggestion %q", e.Suggestion)
	}
	if strings.Contains(w.Body.String(), `"suggestion"`) {
		t.Errorf("empty suggestion not omitted: %s", w.Body)
	}
}

// TestErrorTextFormat pins the negotiated plain-text failure form: clients
// that asked for text get a single "error: ..." line, not JSON.
func TestErrorTextFormat(t *testing.T) {
	s, _ := newTestServer(t)
	w := get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=zero&format=text")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, "error: ") || strings.Contains(body, "{") {
		t.Errorf("text error body %q, want a plain error line", body)
	}

	// The Accept header negotiates the same way.
	w = get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=zero", "Accept", "text/plain")
	if !strings.HasPrefix(w.Body.String(), "error: ") {
		t.Errorf("Accept-negotiated error body %q", w.Body.String())
	}

	// A bad ?format= itself still gets a parseable JSON envelope.
	w = get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2&format=bogus")
	if e := decodeEnvelope(t, w); e.Code != "invalid_argument" {
		t.Errorf("bad-format code %q", e.Code)
	}
}

// TestLookupErrorsThroughAsAPIError pins the one "unknown NAME" path: a
// benchmark name and a what-if intervention ID that do not resolve reach
// the envelope as 404s with their own codes, the exact messages every front
// end has always shown, and the suggestion lifted out machine-readably —
// and still match their sentinels under errors.Is.
func TestLookupErrorsThroughAsAPIError(t *testing.T) {
	_, ivTypo := whatif.ByID("double_lcc")
	_, ivNoise := whatif.ByID("zzzzzzzzzzzzzzzzzzzz")
	for _, tc := range []struct {
		err        error
		sentinel   error
		code       string
		message    string
		suggestion string
	}{
		{workload.UnknownBenchmarkError("choleski"), workload.ErrUnknownBenchmark, codeUnknownBenchmark,
			`unknown benchmark "choleski" (did you mean "cholesky"?)`, "cholesky"},
		{workload.UnknownBenchmarkError("qwertyuiop"), workload.ErrUnknownBenchmark, codeUnknownBenchmark,
			`unknown benchmark "qwertyuiop" (not one of the 28 registered analogues)`, ""},
		{ivTypo, whatif.ErrUnknownIntervention, codeUnknownIntervention,
			`unknown intervention "double_lcc" (did you mean "double_llc"?)`, "double_llc"},
		{ivNoise, whatif.ErrUnknownIntervention, codeUnknownIntervention,
			`unknown intervention "zzzzzzzzzzzzzzzzzzzz" (catalog: ` + strings.Join(whatif.IDs(), ", ") + `)`, ""},
	} {
		// Wrapped: the lookup is found through any wrapping.
		ae := asAPIError(fmt.Errorf("wrapped: %w", tc.err))
		if ae.Status != http.StatusNotFound || ae.Code != tc.code || ae.Message != tc.message || ae.Suggestion != tc.suggestion {
			t.Errorf("asAPIError(%v) = %d %s %q (suggestion %q); want 404 %s %q (suggestion %q)",
				tc.err, ae.Status, ae.Code, ae.Message, ae.Suggestion, tc.code, tc.message, tc.suggestion)
		}
		if !errors.Is(tc.err, tc.sentinel) {
			t.Errorf("%v does not match its sentinel %v", tc.err, tc.sentinel)
		}
	}
}
