package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordTestTrace captures testBench at the given thread count and returns
// the encoded binary trace, ready to upload.
func recordTestTrace(t *testing.T, threads int) []byte {
	t.Helper()
	b, ok := workload.ByName(testBench)
	if !ok {
		t.Fatalf("test bench %q not registered", testBench)
	}
	f, _, err := workload.Record(sim.Default(), b.Spec, threads)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestTraceAnalyzeEndpoint pins the trace-upload contract end to end: a
// recorded binary trace uploaded to /v1/traces/analyze is replayed at its
// recorded thread count and answers the usual report row, and repeating the
// upload is a memo hit under the trace's content hash — zero additional
// simulations, visible in the /metrics cell-run counters.
func TestTraceAnalyzeEndpoint(t *testing.T) {
	s, sims := newTestServer(t)
	data := recordTestTrace(t, 2)

	w := post(t, s.Handler(), "/v1/traces/analyze", string(data))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rows []stack.ReportRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].Benchmark != testBench || rows[0].Threads != 2 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[0].Actual <= 0 || rows[0].Estimated <= 0 {
		t.Errorf("stack not populated: %+v", rows[0])
	}
	if *sims != 1 {
		t.Fatalf("first upload ran %d simulations, want 1", *sims)
	}

	// Repeating the upload must hit the fingerprint-keyed memo: the trace's
	// content hash is the identity, so the second analyze is free.
	if w := post(t, s.Handler(), "/v1/traces/analyze", string(data)); w.Code != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", w.Code, w.Body)
	}
	if *sims != 1 {
		t.Fatalf("repeated upload re-simulated: %d runs, want 1", *sims)
	}
	scrape(t, s.Handler()).want(t, map[string]float64{
		"speedupd_sim_cell_runs_total":       1,
		"speedupd_sim_cell_runs_exact_total": 1,
		"speedupd_sim_cell_runs_fast_total":  0,
	})

	// An explicit cores override is a different cell (own simulation), and a
	// fast-mode replay never shares the exact entry.
	if w := post(t, s.Handler(), "/v1/traces/analyze?cores=1", string(data)); w.Code != http.StatusOK {
		t.Fatalf("cores=1: status %d: %s", w.Code, w.Body)
	}
	if *sims != 2 {
		t.Fatalf("cores override did not simulate its own cell: %d runs", *sims)
	}
	if w := post(t, s.Handler(), "/v1/traces/analyze?mode=fast", string(data)); w.Code != http.StatusOK {
		t.Fatalf("mode=fast: status %d: %s", w.Code, w.Body)
	}
	if st := s.Engine().Stats(); st.FastCellRuns != 1 {
		t.Fatalf("fast replay not counted: %+v", st)
	}
}

// TestTraceAnalyzeRejects pins the endpoint's failure shapes: corrupt bodies
// and malformed or unknown parameters all answer the uniform envelope, and
// nothing simulates.
func TestTraceAnalyzeRejects(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	data := recordTestTrace(t, 1)

	// Corrupt trace: flip a byte past the header so decode fails.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	truncated := data[:len(data)/2]
	for name, body := range map[string]string{
		"empty":       "",
		"not a trace": "{\"spec\":{}}",
		"corrupt":     string(corrupt),
		"truncated":   string(truncated),
	} {
		w := post(t, h, "/v1/traces/analyze", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body)
			continue
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: bad envelope: %v", name, err)
			continue
		}
		if env.Error.Code != "invalid_argument" || !strings.Contains(env.Error.Message, "bad trace") {
			t.Errorf("%s: envelope %+v", name, env.Error)
		}
	}

	// Threads is deliberately not a parameter — a trace replays at its
	// recorded count — so it must be rejected like any unknown parameter.
	if w := post(t, h, "/v1/traces/analyze?threads=4", string(data)); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "unknown_parameter") {
		t.Errorf("?threads=4: status %d, body %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/traces/analyze?cores=bogus", string(data)); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "invalid_argument") {
		t.Errorf("?cores=bogus: status %d, body %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/traces/analyze?cores=65", string(data)); w.Code != http.StatusBadRequest {
		t.Errorf("?cores=65: status %d, body %s", w.Code, w.Body)
	}
	if st := s.Engine().Stats(); st.CellRuns != 0 {
		t.Errorf("rejected requests ran %d simulations", st.CellRuns)
	}
}

// zeroWorkTraces are uploads whose replay takes zero cycles: every thread
// stream holds just End, or an empty Compute burst and End. Each once made
// every stack value NaN — the text report then tried to pad its bar with
// int(NaN) spaces and killed the process, json and ndjson answered 200
// with an empty body.
var zeroWorkTraces = map[string]string{
	"end only":     "SPTR\x01\x01\x00\x00\x00\x00\x00\x02\x01\x01\x09\x01\x01\x09\x01\x01\x09",
	"empty bursts": "SPTR\x01\x01\x00\x00\x00\x00\x00\x02\x01\x01\x09\x02\x03\x00\x00\x09\x02\x03\x00\x00\x09",
}

// TestTraceZeroWorkRefused pins the refusal at decode: every format answers
// 400 invalid_argument, nothing simulates, and the server keeps serving.
func TestTraceZeroWorkRefused(t *testing.T) {
	s, sims := newTestServer(t)
	h := s.Handler()
	for name, body := range zeroWorkTraces {
		for _, f := range stack.Formats() {
			w := post(t, h, "/v1/traces/analyze?format="+string(f), body)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "no thread stream holds work") {
				t.Errorf("%s, %s: status %d, body %q", name, f, w.Code, w.Body)
			}
			if f != stack.FormatText && !strings.Contains(w.Body.String(), `"invalid_argument"`) {
				t.Errorf("%s, %s: envelope %q", name, f, w.Body)
			}
		}
	}
	if *sims != 0 {
		t.Errorf("refused uploads ran %d simulations", *sims)
	}
	if w := get(t, h, "/v1/stack?bench="+testBench+"&threads=2&format=text"); w.Code != http.StatusOK {
		t.Errorf("server stopped serving: status %d, body %s", w.Code, w.Body)
	}
}

// TestTraceSyncViolationRefused pins the answer to an upload whose ops no
// run can have recorded — an Unlock of a lock the thread never took, and a
// Push to a queue the stream has closed, each in a thread stream and in
// the sequential stream. The replay used to panic in an engine goroutine
// and take the process down; now each answers 400 invalid_argument naming
// the violation and the server keeps serving.
func TestTraceSyncViolationRefused(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	unlock := []trace.Op{trace.Compute(10), trace.Unlock(1), trace.End()}
	push := []trace.Op{trace.Compute(10), trace.CloseQueue(0), trace.Push(0), trace.End()}
	good := []trace.Op{trace.Compute(10), trace.End()}
	seq := []trace.Op{trace.Compute(20), trace.End()}
	queue := trace.Header{Queues: []trace.QueueReg{{ID: 0, Cap: 4}}}
	for _, tc := range []struct {
		name, want string
		f          trace.File
	}{
		{"unlock in thread stream", "Release of unheld lock", trace.File{Sequential: seq, Threads: [][]trace.Op{unlock, good}}},
		{"unlock in sequential stream", "Release of unheld lock", trace.File{Sequential: unlock, Threads: [][]trace.Op{good, good}}},
		{"push in thread stream", "Push on closed queue", trace.File{Header: queue, Sequential: seq, Threads: [][]trace.Op{push, good}}},
		{"push in sequential stream", "Push on closed queue", trace.File{Header: queue, Sequential: push, Threads: [][]trace.Op{good, good}}},
	} {
		var buf bytes.Buffer
		if err := tc.f.Encode(&buf); err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		w := post(t, h, "/v1/traces/analyze", buf.String())
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"invalid_argument"`) ||
			!strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: status %d, body %s", tc.name, w.Code, w.Body)
		}
	}
	if w := get(t, h, "/v1/stack?bench="+testBench+"&threads=2"); w.Code != http.StatusOK {
		t.Errorf("server stopped serving: status %d, body %s", w.Code, w.Body)
	}
}

// TestTraceSyncIDBound pins trace.MaxSyncID at the upload door: a sync id
// indexes the simulator's dense sync tables, so a few dozen bytes naming a
// large one once asked for gigabytes. The largest id replays; one more, in
// an op or a queue registration, answers 400 invalid_argument naming the
// id (and, in an op, its offset), and nothing simulates it.
func TestTraceSyncIDBound(t *testing.T) {
	s, sims := newTestServer(t)
	h := s.Handler()
	locks := []trace.Op{trace.Compute(10), trace.Lock(trace.MaxSyncID), trace.Unlock(trace.MaxSyncID), trace.End()}
	good := []trace.Op{trace.Compute(10), trace.End()}
	seq := []trace.Op{trace.Compute(20), trace.End()}
	queue := trace.Header{Queues: []trace.QueueReg{{ID: trace.MaxSyncID, Cap: 4}}}
	// Encode refuses an id past the bound, so a refused upload is an
	// accepted one with every varint of the largest id patched to the next
	// id's, three bytes either way.
	from, to := binary.AppendUvarint(nil, trace.MaxSyncID), binary.AppendUvarint(nil, trace.MaxSyncID+1)
	upload := func(f trace.File, past bool) string {
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if past {
			return string(bytes.ReplaceAll(buf.Bytes(), from, to))
		}
		return buf.String()
	}
	largest := trace.File{Header: queue, Sequential: seq, Threads: [][]trace.Op{locks, good}}
	if w := post(t, h, "/v1/traces/analyze", upload(largest, false)); w.Code != http.StatusOK {
		t.Fatalf("the largest ids: status %d, body %s", w.Code, w.Body)
	}
	runs := *sims
	for _, tc := range []struct {
		name, want string
		f          trace.File
	}{
		{"queue registration", "trace: queue id 1048576 exceeds 1048575",
			trace.File{Header: queue, Sequential: seq, Threads: [][]trace.Op{good, good}}},
		{"lock op", "trace: thread 0 stream: op 1: sync id 1048576 at offset 3 exceeds 1048575",
			trace.File{Sequential: seq, Threads: [][]trace.Op{locks, good}}},
	} {
		w := post(t, h, "/v1/traces/analyze", upload(tc.f, true))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"invalid_argument"`) ||
			!strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: status %d, body %s", tc.name, w.Code, w.Body)
		}
	}
	if *sims != runs {
		t.Errorf("refused uploads ran %d simulations", *sims-runs)
	}
}

// TestTraceEmptyRegistrationRefused: a queue of no capacity or a barrier of
// no parties is a header the sync library cannot build, so the upload is
// refused at its header, 400 invalid_argument naming the registration, and
// nothing is simulated, not even the sequential reference.
func TestTraceEmptyRegistrationRefused(t *testing.T) {
	var runs atomic.Int32
	s, _ := newTestServer(t, exp.WithRunHook(func(string, string, int, int) { runs.Add(1) }))
	h := s.Handler()
	good := []trace.Op{trace.Compute(10), trace.End()}
	// Encode refuses an empty registration too, so each upload is a valid
	// one with the registration's count patched to 0: queue 1000 of
	// capacity 77, barrier 2000 of 2 parties, their varints unique in the
	// encoding.
	f := trace.File{
		Header:     trace.Header{Queues: []trace.QueueReg{{ID: 1000, Cap: 77}}, Barriers: []trace.BarrierReg{{ID: 2000, Parties: 2}}},
		Sequential: []trace.Op{trace.Compute(20), trace.End()},
		Threads:    [][]trace.Op{good, good},
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	reg := func(id uint32, n uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(id)), n)
	}
	for _, tc := range []struct {
		want     string
		from, to []byte
	}{
		{"trace: queue 1000 capacity must be in [1, 1048576], got 0", reg(1000, 77), reg(1000, 0)},
		{"trace: barrier 2000 parties must be in [1, 256], got 0", reg(2000, 2), reg(2000, 0)},
	} {
		if n := bytes.Count(buf.Bytes(), tc.from); n != 1 {
			t.Fatalf("%s: the registration appears %d times in the trace", tc.want, n)
		}
		w := post(t, h, "/v1/traces/analyze", string(bytes.Replace(buf.Bytes(), tc.from, tc.to, 1)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"invalid_argument"`) ||
			!strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: status %d, body %s", tc.want, w.Code, w.Body)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("refused uploads ran %d simulations", n)
	}
}
