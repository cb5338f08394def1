package speedupstack

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Trace recording and replay. A recorded trace is the compact versioned
// binary op-trace format of internal/trace: every operation every thread
// issued during one run of a workload on the default machine, plus the run's
// queue/barrier registrations and sync-library overrides. Replaying a trace
// reproduces the original run's sim.Result byte-identically, at exactly the
// thread count it was recorded with, and is memoized under the trace's
// content hash (the label does not participate) across Measure, the
// speedupd service and the fleet.

// RecordTrace runs the request's workload once and writes the binary op
// trace of that run to w. The written bytes are what POST
// /v1/traces/analyze, LoadTrace and the speedup-stack -trace flag accept. A
// trace captures an exact run: a Fast request is an error.
func RecordTrace(w io.Writer, r Request) error {
	if r.Fast {
		return errors.New("speedupstack: a trace records an exact run, so it refuses fast mode")
	}
	// No engine call judges this request, so the engine's own
	// exp.Cell.Resolve does.
	b, err := r.request().Resolve()
	if err != nil {
		return err
	}
	f, _, err := workload.Record(sim.Default(), b.Spec, r.Threads)
	if err != nil {
		return err
	}
	return f.Encode(w)
}

// LoadTrace reads a recorded binary op trace and returns the Workload that
// replays it. The workload measures like any other (Measure, MeasureAll,
// the service), but only at the trace's recorded thread count, which its
// TraceThreads method reports. The trace is decoded as it is read, each
// stream into chunks the workload keeps, so loading costs about the
// trace's size.
func LoadTrace(r io.Reader) (Workload, error) {
	d, err := trace.DecodeFrom(r)
	var re *trace.ReadError
	if errors.As(err, &re) {
		return Workload{}, fmt.Errorf("reading trace: %v", re.Err)
	}
	if err != nil {
		return Workload{}, err
	}
	return workload.TraceSpec(d), nil
}
