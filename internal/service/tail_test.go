package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stack"
)

// The documents and failures the tail fences hand in place of engine calls:
// a one-row document, a zero-cycle stack whose NaN values the json and
// ndjson encoders refuse, and a failed engine call.
var (
	goodDoc = stack.Bars{{Label: "one", Stack: core.Stack{N: 2, Tp: 100}}}
	okCall  = func(context.Context) (stack.Document, error) { return goodDoc, nil }
	nanCall = func(context.Context) (stack.Document, error) {
		return stack.Bars{{Label: "zero", Stack: core.Stack{N: 2}}}, nil
	}
	failCall = func(context.Context) (stack.Document, error) { return nil, errors.New("boom") }
)

// withCalls builds a server whose row for path keeps its own parse step but
// hands the tail fakes[i] in place of its i-th engine call, so a failure
// reaches the tail through Handler() without simulating anything.
func withCalls(t *testing.T, path string, fakes ...call) http.Handler {
	t.Helper()
	saved := slices.Clone(routes)
	defer copy(routes, saved)
	for i := range routes {
		if routes[i].path != path {
			continue
		}
		parse := routes[i].parse
		routes[i].parse = func(s *Server, r *http.Request, opts requestOptions) ([]labelled, *apiError) {
			calls, aerr := parse(s, r, opts)
			for j := range calls {
				calls[j].call = fakes[j]
			}
			return calls, aerr
		}
	}
	s, _ := newTestServer(t)
	return s.Handler()
}

// TestTailErrorShapes pins how the one tail answers a failed call or a
// document the encoder refuses, through Handler(): a single call's failure
// is the 500 envelope with no cell prefix in every format, a buffered
// sweep's is too, a streamed sweep's names its cell, and a streamed
// failure after a row is on the wire ends the 200 stream with the envelope
// line.
func TestTailErrorShapes(t *testing.T) {
	stackQ := "/v1/stack?bench=" + testBench + "&threads=2&format="
	cell := `{"bench":"` + testBench + `","threads":2}`
	one, two := `{"cells":[`+cell+`]}`, `{"cells":[`+cell+`,`+cell+`]}`
	for _, tc := range []struct {
		name, target, body string
		calls              []call
		status             int
		rows               int    // row lines before the envelope line
		code, msg          string // msg: the message's prefix, exact when it ends in no ": "
	}{
		{"stack json encode", stackQ + "json", "", []call{nanCall}, 500, 0, codeEncodeFailed, "encoding the json report: "},
		{"stack ndjson encode", stackQ + "ndjson", "", []call{nanCall}, 500, 0, codeEncodeFailed, "encoding the ndjson report: "},
		{"stack json call", stackQ + "json", "", []call{failCall}, 500, 0, codeSimFailed, "simulation failed: boom"},
		{"stack ndjson call", stackQ + "ndjson", "", []call{failCall}, 500, 0, codeSimFailed, "simulation failed: boom"},
		{"sweep buffered encode", "/v1/sweep", two, []call{nanCall}, 500, 0, codeEncodeFailed, "encoding the json report: "},
		{"sweep buffered call", "/v1/sweep", two, []call{failCall}, 500, 0, codeSimFailed, "simulation failed: boom"},
		{"sweep streamed first encode", "/v1/sweep?format=ndjson", one, []call{nanCall}, 500, 0, codeEncodeFailed,
			"cell 0: encoding the ndjson report: "},
		{"sweep streamed first call", "/v1/sweep?format=ndjson", one, []call{failCall}, 500, 0, codeSimFailed,
			"cell 0: simulation failed: boom"},
		{"sweep streamed later encode", "/v1/sweep?format=ndjson", two, []call{okCall, nanCall}, 200, 1, codeEncodeFailed,
			"cell 1: encoding the ndjson report: "},
		{"sweep streamed later call", "/v1/sweep?format=ndjson", two, []call{okCall, failCall}, 200, 1, codeSimFailed,
			"cell 1: simulation failed: boom"},
	} {
		path, _, _ := strings.Cut(tc.target, "?")
		method := http.MethodGet
		if tc.body != "" {
			method = http.MethodPost
		}
		w := httptest.NewRecorder()
		withCalls(t, path, tc.calls...).ServeHTTP(w, httptest.NewRequest(method, tc.target, strings.NewReader(tc.body)))
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body)
			continue
		}
		// Before any row the envelope is the whole (indented) body; after
		// one it is the stream's last line.
		last, wantType := w.Body.String(), "application/json; charset=utf-8"
		if tc.rows > 0 {
			lines := strings.SplitAfter(last, "\n")
			if len(lines) != tc.rows+2 || lines[tc.rows+1] != "" {
				t.Errorf("%s: body %q, want %d rows and one envelope line", tc.name, w.Body, tc.rows)
				continue
			}
			row, _ := json.Marshal(stack.Row(goodDoc[0]))
			for _, l := range lines[:tc.rows] {
				if l != string(row)+"\n" {
					t.Errorf("%s: row line %q, want %q", tc.name, l, row)
				}
			}
			last, wantType = lines[tc.rows], stack.FormatNDJSON.ContentType()
		}
		if ct := w.Header().Get("Content-Type"); ct != wantType {
			t.Errorf("%s: Content-Type %q, want %q", tc.name, ct, wantType)
		}
		var env ErrorEnvelope
		err := json.Unmarshal([]byte(last), &env)
		exact := !strings.HasSuffix(tc.msg, ": ")
		if err != nil || env.Error.Code != tc.code || !strings.HasPrefix(env.Error.Message, tc.msg) ||
			exact && env.Error.Message != tc.msg {
			t.Errorf("%s: envelope %q (%v), want %s %q", tc.name, last, err, tc.code, tc.msg)
		}
		if tc.rows > 0 && !Partial(w.Body.Bytes()) {
			t.Errorf("%s: a stream ended by a failure does not read as Partial", tc.name)
		}
	}
}

// TestAnswerEncodeFailure pins answer's reply to one document the encoder
// refuses (a zero-cycle stack's NaN values in a JSON body): the 500
// envelope, with nothing written before it.
func TestAnswerEncodeFailure(t *testing.T) {
	s, _ := newTestServer(t)
	for _, f := range []stack.Format{stack.FormatJSON, stack.FormatNDJSON} {
		w := httptest.NewRecorder()
		aerr := s.answer(w, httptest.NewRequest(http.MethodGet, "/v1/stack", nil), f, one(nanCall))
		if aerr == nil || aerr.Status != http.StatusInternalServerError || aerr.Code != codeEncodeFailed {
			t.Errorf("%s: answer answered %+v, want a 500 %s", f, aerr, codeEncodeFailed)
		}
		if w.Body.Len() != 0 {
			t.Errorf("%s: %d body bytes written before the failure", f, w.Body.Len())
		}
	}
}

// TestAnswerStreamEncodeFailure pins a streamed sweep's answer to a row the
// encoder refuses. As the first row it is the one-call 500 envelope, with
// nothing written; after a row is on the wire the stream ends with the
// envelope line, as a failed cell's does, so the reply reads as a short one
// (Partial) and not as a complete 200 one row short.
func TestAnswerStreamEncodeFailure(t *testing.T) {
	s, _ := newTestServer(t)
	cells := func(calls ...call) []labelled {
		ls := make([]labelled, len(calls))
		for i, c := range calls {
			ls[i] = labelled{call: c, label: cellLabel(i)}
		}
		return ls
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep?format=ndjson", nil)

	w := httptest.NewRecorder()
	if aerr := s.answer(w, req, stack.FormatNDJSON, cells(nanCall, okCall)); aerr == nil ||
		aerr.Status != http.StatusInternalServerError || aerr.Code != codeEncodeFailed {
		t.Errorf("failing first row: answer answered %+v, want a 500 %s", aerr, codeEncodeFailed)
	}
	if w.Body.Len() != 0 {
		t.Errorf("failing first row: %d body bytes written before the failure", w.Body.Len())
	}

	w = httptest.NewRecorder()
	if aerr := s.answer(w, req, stack.FormatNDJSON, cells(okCall, nanCall, okCall)); aerr != nil {
		t.Fatalf("failing second row: answer answered %+v after a row was written", aerr)
	}
	row, _ := json.Marshal(stack.Row(goodDoc[0]))
	lines := strings.SplitAfter(w.Body.String(), "\n")
	if w.Code != http.StatusOK || len(lines) != 3 || lines[0] != string(row)+"\n" || lines[2] != "" {
		t.Fatalf("failing second row: status %d, body %q, want 200 with one row and one error line", w.Code, w.Body)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil || env.Error.Code != codeEncodeFailed ||
		!strings.HasPrefix(env.Error.Message, "cell 1: ") {
		t.Errorf("failing second row: last line %q (%v), want the cell 1 %s envelope", lines[1], err, codeEncodeFailed)
	}
	if !Partial(w.Body.Bytes()) {
		t.Error("a stream ended by an encode failure does not read as Partial")
	}
}

// TestReplyContentLength: a reply of one document carries its length, past
// net/http's 2 KiB chunking threshold too — a /v1/stack SVG — so a reader
// sizes its buffer exactly; a streamed ndjson sweep, whose rows go out as
// they complete, stays chunked.
func TestReplyContentLength(t *testing.T) {
	s, _ := newTestServer(t)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	read := func(resp *http.Response, err error) (*http.Response, []byte) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s %v", resp.Request.URL, resp.StatusCode, body, err)
		}
		return resp, body
	}

	resp, body := read(http.Get(srv.URL + "/v1/stack?bench=" + testBench + "&threads=2&format=svg"))
	if len(body) <= 2<<10 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("a %d-byte SVG reply announced length %d, transfer encoding %v; want its length",
			len(body), resp.ContentLength, resp.TransferEncoding)
	}

	cells := strings.Repeat(`{"bench":"`+testBench+`","threads":2},`, 12)
	resp, body = read(http.Post(srv.URL+"/v1/sweep?format=ndjson", "application/json",
		strings.NewReader(`{"cells":[`+strings.TrimSuffix(cells, ",")+`]}`)))
	if len(body) <= 2<<10 || resp.ContentLength != -1 || !slices.Equal(resp.TransferEncoding, []string{"chunked"}) {
		t.Errorf("a %d-byte streamed sweep announced length %d, transfer encoding %v; want chunked",
			len(body), resp.ContentLength, resp.TransferEncoding)
	}
}
