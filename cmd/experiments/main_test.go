package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stack"
)

// TestCustomSection runs the custom section on a small inline spec from a
// file: the fingerprint line, then one bar per thread count.
func TestCustomSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kernel.json")
	spec := `{"name":"ci-kernel","kind":"data_parallel","array_bytes":524288,` +
		`"sweeps_per_phase":1,"phases":1,"instr_per_access":2500,"store_frac":0.1,"seed":11}`
	if err := os.WriteFile(path, []byte(spec), 0o666); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-q", "custom", "-spec", path}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, &stderr)
	}
	out := stdout.String()
	if !regexp.MustCompile(`(?m)^workload ci-kernel \(fingerprint [0-9a-f]{12}\)$`).MatchString(out) {
		t.Errorf("no fingerprint line in:\n%s", out)
	}
	if bars := regexp.MustCompile(`(?m)^ci-kernel x\d+ +N=\d+ +est=.*\|$`).FindAllString(out, -1); len(bars) != 5 {
		t.Errorf("%d bars, want one per thread count 1, 2, 4, 8, 16:\n%s", len(bars), out)
	}
}

// TestWriteTimelines writes one SVG file per series into the -outdir
// directory and names each on the log.
func TestWriteTimelines(t *testing.T) {
	dir := t.TempDir()
	series := make([]stack.TimeSeries, 2)
	for i, label := range []string{"a", "b"} {
		series[i] = stack.TimeSeries{Label: label, Stack: core.Stack{N: 2, Tp: 100}, TotalOps: 10,
			Intervals: []stack.Interval{{EndOps: 10, EndCycle: 100, Components: core.IntComponents{NegMem: 40}}}}
	}
	var log bytes.Buffer
	if err := writeTimelines(dir, series, &log); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != len(series) {
		t.Fatalf("wrote %v, want one file per series", files)
	}
	for _, ts := range series {
		path := filepath.Join(dir, "timeline_"+ts.Label+".svg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("<svg")) {
			t.Errorf("%s does not open with <svg: %.40q", path, data)
		}
		if !strings.Contains(log.String(), "wrote "+path+"\n") {
			t.Errorf("the log does not name %s:\n%s", path, &log)
		}
	}
}

// TestUsageErrors pins the arguments refused before any section runs: exit
// status 2, one line on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-q", "nosuch"}, `unknown section "nosuch"`},
		{[]string{"-q", "fig1", "stray"}, "unexpected arguments [stray]"},
	} {
		var stdout, stderr bytes.Buffer
		status := run(tc.args, &stdout, &stderr)
		if status != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, %q",
				tc.args, status, &stdout, &stderr, tc.want)
		}
	}
}
