package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	speedupstack "repro"
)

// TestUsageErrors pins the requests the command refuses before running
// anything: one line on stderr, nothing on stdout, and exit status 2 for a
// flag combination or 1 for a request the library refuses — with the
// library's own text, the same text every door gives.
func TestUsageErrors(t *testing.T) {
	ctx := context.Background()
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
		{"-mode turbo", 2, "unknown -mode"},
		{"-record out.trace -trace in.trace", 2, "-record captures one aggregate run"},
		{"-record out.trace -advise", 2, "-record captures one aggregate run"},
		{"-record out.trace -whatif", 2, "-record captures one aggregate run"},
		{"-record out.trace -intervals 4", 2, "-record captures one aggregate run"},
		{"-record out.trace -mode fast", 1, recordErr.Error()},
		{"-trace in.trace -advise", 2, "-trace replays the recorded run's aggregate stack"},
		{"-trace in.trace -whatif", 2, "-trace replays the recorded run's aggregate stack"},
		{"-trace in.trace -intervals 4", 2, "-trace replays the recorded run's aggregate stack"},
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
