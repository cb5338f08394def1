package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the flag combinations the command rejects before
// running anything: exit status 2, one line on stderr, nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the one-line message
	}{
		{"-intervals -5", "-intervals must not be negative"},
		{"-interventions double_llc", "add -whatif"},
		{"-interventions double_llc -advise", "add -whatif"},
		{"-max-threads 8", "add -advise"},
		{"-max-threads 8 -whatif", "add -advise"},
		{"-mode fast -advise", "-mode fast applies to the aggregate stack only"},
		{"-mode fast -whatif", "-mode fast applies to the aggregate stack only"},
		{"-mode fast -intervals 4", "-mode fast applies to the aggregate stack only"},
		{"-mode turbo", "unknown -mode"},
		{"-record out.trace -trace in.trace", "-record captures one exact aggregate run"},
		{"-record out.trace -advise", "-record captures one exact aggregate run"},
		{"-record out.trace -whatif", "-record captures one exact aggregate run"},
		{"-record out.trace -intervals 4", "-record captures one exact aggregate run"},
		{"-record out.trace -mode fast", "-record captures one exact aggregate run"},
		{"-trace in.trace -advise", "-trace replays the recorded run exactly"},
		{"-trace in.trace -whatif", "-trace replays the recorded run exactly"},
		{"-trace in.trace -intervals 4", "-trace replays the recorded run exactly"},
		{"-trace in.trace -mode fast", "-trace replays the recorded run exactly"},
		{"-format yaml", "yaml"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr %q, want one line containing %q", msg, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
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
