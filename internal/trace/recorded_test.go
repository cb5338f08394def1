package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRecordedTracesDecodeFromAReader holds the reader decoder to Decode
// over two recorded runs, one with queue registrations: every reader at
// every chunk size (trace.Agree) decodes them as Decode does.
func TestRecordedTracesDecodeFromAReader(t *testing.T) {
	for _, name := range []string{"queue_handoff_contention", "lock_staircase_contention"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		f, _, err := workload.Record(sim.Default(), b.Spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		trace.Agree(t, buf.Bytes())
	}
}
