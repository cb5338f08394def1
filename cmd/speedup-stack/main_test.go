package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	speedupstack "repro"
	"repro/client"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/sim"
)

// speedupdRefusal serves target on a fresh speedupd and returns its error
// message, failing unless the answer is 400 invalid_argument.
func speedupdRefusal(t *testing.T, h http.Handler, target string) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusBadRequest ||
		env.Error.Code != "invalid_argument" {
		t.Fatalf("speedupd %s: status %d, body %s; want 400 invalid_argument", target, w.Code, w.Body)
	}
	return env.Error.Message
}

// TestUsageErrors pins the requests the command refuses before running
// anything: one line on stderr, nothing on stdout, and exit status 2 for a
// flag combination or 1 for a request the library refuses — with the
// library's own text, the same text every door gives.
func TestUsageErrors(t *testing.T) {
	ctx := context.Background()
	srv := service.New(service.Options{Engine: exp.NewEngine(sim.Default())}).Handler()
	fast := speedupstack.Request{Bench: "cholesky_splash2", Threads: 16, Fast: true}
	_, adviseErr := speedupstack.Advise(ctx, fast, 16)
	_, whatIfErr := speedupstack.WhatIf(ctx, fast)
	recordErr := speedupstack.RecordTrace(io.Discard, fast)
	for _, err := range []error{adviseErr, whatIfErr, recordErr} {
		if err == nil {
			t.Fatal("the library served a fast request it refuses")
		}
	}
	for _, tc := range []struct {
		args   string
		status int
		want   string // substring of the one-line message
	}{
		{"-intervals -5", 2, "-intervals must not be negative"},
		{"-interventions double_llc", 2, "add -whatif"},
		{"-interventions double_llc -advise", 2, "add -whatif"},
		{"-max-threads 8", 2, "add -advise"},
		{"-max-threads 8 -whatif", 2, "add -advise"},
		{"-mode fast -advise", 1, adviseErr.Error()},
		{"-mode fast -whatif", 1, whatIfErr.Error()},
		{"-mode turbo", 2, speedupdRefusal(t, srv, "/v1/advise?bench=cholesky&mode=turbo")},
		{"-record out.trace -trace in.trace", 2, "-record captures one aggregate run"},
		{"-record out.trace -advise", 2, "-record captures one aggregate run"},
		{"-record out.trace -whatif", 2, "-record captures one aggregate run"},
		{"-record out.trace -intervals 4", 2, "-record captures one aggregate run"},
		{"-record out.trace -mode fast", 1, recordErr.Error()},
		{"-trace in.trace -advise", 2, "-trace replays the recorded run's aggregate stack"},
		{"-trace in.trace -whatif", 2, "-trace replays the recorded run's aggregate stack"},
		{"-trace in.trace -intervals 4", 2, "-trace replays the recorded run's aggregate stack"},
		{"-trace in.trace -threads 8", 2, "drop -threads"},
		{"-advise -threads 8", 2, "drop -threads"},
		{"-format yaml", 2, "yaml"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.status {
				t.Errorf("exit status %d, want %d", code, tc.status)
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr %q, want one line containing %q", msg, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("refused request wrote to stdout: %q", stdout.String())
			}
			if _, err := os.Stat("out.trace"); err == nil {
				os.Remove("out.trace")
				t.Error("a refused -record left out.trace behind")
			}
		})
	}
}

// TestAdviseRangeOneText checks that the engine alone judges the advisor's
// sweep top: every door answers a top outside [MinAdviseThreads,
// MaxAdviseThreads] with exp.Engine.Advise's own text, before any
// simulation.
func TestAdviseRangeOneText(t *testing.T) {
	ctx := context.Background()
	e := exp.NewEngine(sim.Default())
	srv := service.New(service.Options{Engine: exp.NewEngine(sim.Default())}).Handler()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	var experiments func(context.Context, *exp.Engine, exp.Params) (string, error)
	for _, a := range exp.Artifacts {
		if a.Name == "advise" {
			experiments = a.Run
		}
	}
	for _, n := range []int{0, 2, 65, 300} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			_, err := e.Advise(ctx, exp.Request{Cell: exp.Cell{Bench: "cholesky"}}, n)
			var refused *exp.RequestError
			if !errors.As(err, &refused) {
				t.Fatalf("engine: error %T (%v), want *exp.RequestError", err, err)
			}
			want := err.Error()
			// The library ignores Request.Threads for the sweep, whatever it holds.
			if _, err := speedupstack.Advise(ctx, speedupstack.Request{Bench: "cholesky", Threads: n}, n); err == nil || err.Error() != want {
				t.Errorf("library: error %v, want %q", err, want)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-bench", "cholesky", "-advise", "-max-threads", fmt.Sprint(n)}, &stdout, &stderr); code != 1 || stderr.String() != want+"\n" || stdout.Len() != 0 {
				t.Errorf("speedup-stack: exit status %d, stderr %q, stdout %q; want 1 and %q", code, stderr.String(), stdout.String(), want)
			}
			if got := speedupdRefusal(t, srv, fmt.Sprintf("/v1/advise?bench=cholesky&max_threads=%d", n)); got != want {
				t.Errorf("speedupd: message %q, want %q", got, want)
			}
			p := exp.DefaultParams
			p.MaxThreads = n
			if _, err := experiments(ctx, e, p); err == nil || err.Error() != want {
				t.Errorf("experiments advise: error %v, want %q", err, want)
			}
			// The client sends max_threads only when set: 0 asks for the
			// service's default top.
			if n != 0 {
				_, err := client.New(hs.URL).Advise(ctx, "cholesky", n)
				var api *client.APIError
				if !errors.As(err, &api) || api.Message != want {
					t.Errorf("client: error %v, want the message %q", err, want)
				}
			}
			if st := e.Stats(); st.CellRuns+st.SeqRuns != 0 {
				t.Errorf("a refused sweep top simulated: %+v", st)
			}
		})
	}
}

// TestFastModeMatchesLibrary checks that -mode fast reaches the reports the
// library serves fast: the interval series and a trace replay print the
// bytes of the library's fast MeasureIntervals and Measure.
func TestFastModeMatchesLibrary(t *testing.T) {
	ctx := context.Background()
	req := speedupstack.Request{Bench: "swaptions_parsec_small", Threads: 2}
	path := filepath.Join(t.TempDir(), "in.trace")
	var tr bytes.Buffer
	if err := speedupstack.RecordTrace(&tr, req); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tr.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	w, err := speedupstack.LoadTrace(bytes.NewReader(tr.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replay := speedupstack.Request{Workload: &w, Threads: w.TraceThreads()}
	encode := func(doc speedupstack.Document, err error) string {
		t.Helper()
		var b bytes.Buffer
		if err == nil {
			err = speedupstack.Encode(&b, speedupstack.FormatCSV, doc)
		}
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	stacks := func(r speedupstack.Request) string {
		res, err := speedupstack.Measure(ctx, r)
		return encode(speedupstack.Stacks(res), err)
	}
	series := func(r speedupstack.Request) string {
		return encode(speedupstack.MeasureIntervals(ctx, r, 4))
	}
	fast := func(r speedupstack.Request) speedupstack.Request { r.Fast = true; return r }
	for _, tc := range []struct {
		name, args  string
		fast, exact string
	}{
		{"intervals", "-bench swaptions_parsec_small -threads 2 -mode fast -intervals 4 -format csv",
			series(fast(req)), series(req)},
		{"trace", "-trace " + path + " -mode fast -format csv", stacks(fast(replay)), stacks(replay)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fast == tc.exact {
				t.Fatal("fast and exact agree on this cell, so it cannot tell the modes apart")
			}
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d, stderr %q", code, stderr.String())
			}
			if stdout.String() != tc.fast {
				t.Errorf("stdout differs from the library's fast report:\n%s\nwant:\n%s", stdout.String(), tc.fast)
			}
		})
	}
}

// TestFlagsWithTheirMode checks the new rejections do not catch the valid
// spellings: an analysis flag next to its mode runs the analysis.
func TestFlagsWithTheirMode(t *testing.T) {
	for _, args := range []string{
		"-bench swaptions_parsec_small -threads 2 -whatif -interventions double_llc -format csv",
		"-bench swaptions_parsec_small -advise -max-threads 3 -format csv",
		"-bench swaptions_parsec_small -threads 2 -intervals 0 -format csv",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 || stdout.Len() == 0 {
			t.Errorf("%s: exit status %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestSpecFile runs a workload spec file through -spec: the small kernel
// the experiments command's custom section analyzes prints the bytes of
// the library's own stack for it, and a malformed spec exits 1 with the
// parse error, after the file's name, as the one line on stderr.
func TestSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name":"ci-kernel","kind":"data_parallel","array_bytes":524288,` +
		`"sweeps_per_phase":1,"phases":1,"instr_per_access":2500,"store_frac":0.1,"seed":11}`
	good, bad := filepath.Join(dir, "kernel.json"), filepath.Join(dir, "bad.json")
	for path, data := range map[string]string{good: spec, bad: spec[:len(spec)/2]} {
		if err := os.WriteFile(path, []byte(data), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	w, err := speedupstack.ParseWorkload([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := speedupstack.Measure(context.Background(), speedupstack.Request{Workload: &w, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := speedupstack.Encode(&want, speedupstack.FormatCSV, speedupstack.Stacks(res)); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", good, "-threads", "2", "-format", "csv"}, &stdout, &stderr); code != 0 || stdout.String() != want.String() {
		t.Errorf("-spec %s: exit status %d, stderr %q, stdout:\n%s\nwant the library's stack:\n%s", good, code, stderr.String(), stdout.String(), want.String())
	}

	_, perr := speedupstack.ParseWorkload([]byte(spec[:len(spec)/2]))
	if perr == nil {
		t.Fatal("the library parsed the malformed spec")
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-spec", bad}, &stdout, &stderr); code != 1 || stderr.String() != bad+": "+perr.Error()+"\n" || stdout.Len() != 0 {
		t.Errorf("-spec %s: exit status %d, stderr %q, stdout %q; want 1 and the parse error %q", bad, code, stderr.String(), stdout.String(), perr)
	}
}
