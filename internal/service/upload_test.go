package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestTraceUploadAllocations holds a trace upload to a cost that is a
// function of its size: a ~2 MB trace POSTed through Handler() and answered
// from the memo allocates at most 1.3 times its length, since the decoder
// reads each stream once into the chunks the replay keeps. Read whole and
// then decoded it allocated 2.06 times; through io.ReadAll, 5.4 times. The
// fleet's read of the same upload (Identify) buffers it at most 2.5 times
// its length, and the handler behind it decodes that buffer in place, so
// the two together stay within 2.6 times, where the handler's second read
// made them 4.1.
func TestTraceUploadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, sims := newTestServer(t)
	h := s.Handler()
	data := recordTestTrace(t, 2)
	size := float64(len(data))

	var body bytes.Reader
	req := httptest.NewRequest(http.MethodPost, "/v1/traces/analyze", &body)
	req.ContentLength = int64(len(data))
	reqBody := req.Body // the handler wraps req.Body in place
	identify := func() {
		body.Reset(data)
		req.Body = reqBody
		if id, _ := Identify(req); len(id.Keys) != 1 {
			t.Fatalf("Identify resolved %d keys, want 1", len(id.Keys))
		}
	}
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d (%s)", w.Code, w.Body)
		}
	}
	for _, tc := range []struct {
		name  string
		run   func()
		bound float64
	}{
		{"a trace upload", func() { body.Reset(data); req.Body = reqBody; serve() }, 1.3},
		{"Identify of a trace upload", identify, 2.5},
		{"a trace upload behind Identify", func() { identify(); serve() }, 2.6},
	} {
		tc.run() // the first upload is the miss that warms the memo
		n := bytesPerRun(5, tc.run)
		t.Logf("%s of %d bytes allocates %.0f bytes (%.2f times)", tc.name, len(data), n, n/size)
		if n > tc.bound*size {
			t.Errorf("%s of %d bytes allocated %.0f bytes, want <= %.0f (%.1f times)", tc.name, len(data), n, tc.bound*size, tc.bound)
		}
	}
	if *sims != 1 {
		t.Errorf("ran %d cell simulations, want the one warm-up", *sims)
	}
}

// TestBodyLengthOverTheWire sends bodies over a real connection, where the
// declared Content-Length is the client's word. A trace upload that declares
// MaxTraceBytes and sends 1 KiB before the client closes its side costs the
// server less than 256 KiB — admission is unbounded by default and Serve has
// no body read timeout, so a reader that trusted the declared length would
// hold 32 MiB per such request — and answers the short body's 400. A body
// over its row's bound keeps its 400 and message.
func TestBodyLengthOverTheWire(t *testing.T) {
	s, _ := newTestServer(t)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// send writes the request head and body on a fresh connection, closes
	// the connection's write side, and returns the answer's status and
	// error message, and the heap bytes the process allocated meanwhile.
	send := func(path string, declared int64, body []byte) (int, string, uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: speedupd\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", path, declared)
		conn.Write(body)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(reply, &env); err != nil {
			t.Fatalf("%s: %d %s: %v", path, resp.StatusCode, reply, err)
		}
		return resp.StatusCode, env.Error.Message, after.TotalAlloc - before.TotalAlloc
	}

	// The least of three tries: a goroutine another test left behind may
	// allocate during one.
	var least uint64
	for try := range 3 {
		status, msg, n := send("/v1/traces/analyze", MaxTraceBytes, make([]byte, 1<<10))
		if status != http.StatusBadRequest || msg != "reading body: unexpected EOF" {
			t.Fatalf("a short trace upload answered %d %q, want 400 %q", status, msg, "reading body: unexpected EOF")
		}
		if try == 0 || n < least {
			least = n
		}
	}
	t.Logf("1 KiB of a declared %d-byte trace upload allocates %d bytes", MaxTraceBytes, least)
	if !raceEnabled && least >= 256<<10 { // the race detector changes allocation counts
		t.Errorf("1 KiB of a declared %d-byte trace upload allocated %d bytes, want < %d", MaxTraceBytes, least, 256<<10)
	}

	// A trace whose one stream declares 30 MiB and carries 1 KiB, under an
	// honest Content-Length: the decoder reads one chunk, never the declared
	// length, and answers the positioned error.
	hostile := append([]byte("SPTR\x01\x00\x00\x00\x00\x00\x00\x01\x01\x80\x80\x80\x0f"), make([]byte, 1<<10)...)
	const wantHostile = "bad trace: trace: thread 0 stream: trace: stream length 31457280 exceeds the 1024 bytes remaining"
	for try := range 3 {
		status, msg, n := send("/v1/traces/analyze", int64(len(hostile)), hostile)
		if status != http.StatusBadRequest || msg != wantHostile {
			t.Fatalf("a stream declared at 30 MiB answered %d %q, want 400 %q", status, msg, wantHostile)
		}
		if try == 0 || n < least {
			least = n
		}
	}
	t.Logf("1 KiB of a stream declared at 30 MiB allocates %d bytes over the wire", least)
	if !raceEnabled && least > 128<<10 {
		t.Errorf("1 KiB of a stream declared at 30 MiB allocated %d bytes over the wire, want <= %d", least, 128<<10)
	}

	over := bytes.Repeat([]byte(" "), maxJSONBytes+1)
	if status, msg, _ := send("/v1/workloads/validate", int64(len(over)), over); status != http.StatusBadRequest ||
		msg != "reading body: http: request body too large" {
		t.Errorf("a %d-byte validate body answered %d %q, want 400 %q",
			len(over), status, msg, "reading body: http: request body too large")
	}
}
