package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/stack"
	"repro/internal/workload"
)

// patternStacksSHA256 is the SHA-256 of the JSON report TestPatternStacksGolden
// encodes. Re-pin it only for a deliberate change to the patterns' stacks.
const patternStacksSHA256 = "c99549f631b82130037821e2a7843f42f9b0839ef13d6c9aa43a55ce4eb761f9"

// TestPatternStacksGolden pins every byte of the contention patterns' speedup
// stacks: one SHA-256 over the JSON report of every pattern at 4 and 16
// threads (the cells TestPatternKnownAnswers simulates) and at 8 threads on 2
// cores. The experiments golden hash covers only the analogues, but the
// synchronization library's fixed costs weigh most on the patterns.
// barrier_convoy and lock_staircase are left out of the 8-thread, 2-core
// cells: their pure-spin waiters are never preempted there, so the runs do
// not finish.
func TestPatternStacksGolden(t *testing.T) {
	noFinish := map[string]bool{"barrier_convoy": true, "lock_staircase": true}
	var cells []Cell
	for _, b := range workload.Patterns() {
		cells = append(cells, Cell{Bench: b.FullName(), Threads: 4}, Cell{Bench: b.FullName(), Threads: 16})
		if !noFinish[b.Spec.Name] {
			cells = append(cells, Cell{Bench: b.FullName(), Threads: 8, Cores: 2})
		}
	}
	outs, err := sharedEngine().Sweep(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	bars := make(stack.Bars, len(outs))
	for i, out := range outs {
		c := cells[i].normalize()
		bars[i] = stack.Bar{Label: fmt.Sprintf("%s/%dt%dc", c.Bench, c.Threads, c.Cores), Stack: out.Stack}
	}
	var buf bytes.Buffer
	if err := stack.EncodeDocument(&buf, stack.FormatJSON, bars); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != patternStacksSHA256 {
		t.Fatalf("pattern stacks SHA-256 = %s, want %s\n%s", got, patternStacksSHA256, buf.Bytes())
	}
}
