package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Trace replay: the bring-your-own-op-stream path. A recorded trace file
// (internal/trace's binary format) becomes a KindTrace Spec via TraceSpec,
// after which every layer treats it like any other workload — the engine
// memoizes it, the service caches it and the fleet routes it, all keyed by
// the spec Fingerprint, which for traces is derived from the trace's
// content hash. Record is the inverse: it runs a generated spec under a
// recording wrapper and emits the trace file whose replay reproduces the
// run byte-identically.

// TraceSpec builds the replay spec for a decoded trace.
func TraceSpec(d *trace.Data) Spec {
	s := traceSpec(d.Header(), d.HashHex())
	s.traceData = d
	return s
}

// traceSpec builds a trace's spec from its header and content hash: the
// name is the label (or a hash-derived placeholder for an unlabeled trace),
// the identity the hash plus the recorded sync-library graces. TraceSpec
// and TraceIdentity both build through it, so a trace routes under the
// identity it replays under.
func traceSpec(h trace.Header, hashHex string) Spec {
	name := h.Label
	if name == "" {
		name = "trace_" + hashHex[:min(12, len(hashHex))]
	}
	return Spec{Name: name, Kind: KindTrace, TraceHash: hashHex,
		LockGrace: h.LockGrace, BarrierGrace: h.BarrierGrace}
}

// TraceThreads returns the thread count a trace spec was recorded at, the
// only count it can replay. Generated kinds return zero.
func (s Spec) TraceThreads() int {
	if s.Kind != KindTrace || s.traceData == nil {
		return 0
	}
	return s.traceData.Threads()
}

// TraceIdentity computes the Fingerprint a trace will have once fully
// decoded, from its cheap header view alone: TraceIdentity(m) equals
// TraceSpec(d).Fingerprint() whenever m describes d. The fleet router uses
// it to home a trace upload without decoding megabytes of op streams.
func TraceIdentity(m trace.Meta) Fingerprint { return traceSpec(m.Header, m.HashHex).Fingerprint() }

// tracePrograms returns the recorded per-thread streams. A trace is a fixed
// execution, not a generator: it replays only at the recorded thread count.
func (s Spec) tracePrograms(threads int) ([]trace.Program, error) {
	d := s.traceData
	if threads != d.Threads() {
		return nil, fmt.Errorf("workload %s: trace was recorded at %d threads and replays only at that count, got %d",
			s.Name, d.Threads(), threads)
	}
	progs := make([]trace.Program, threads)
	for i := range progs {
		progs[i] = d.ThreadProgram(i)
	}
	return progs, nil
}

// traceSequential returns the recorded single-threaded reference stream.
func (s Spec) traceSequential() (trace.Program, error) {
	p, err := s.traceData.SequentialProgram()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return p, nil
}

// Record runs spec s at the given thread count on cfg's machine, capturing
// every op the simulator consumed (parallel streams plus the sequential
// reference), and returns the trace file alongside the recorded run's
// result. The capture happens during a live simulation because op streams
// are execution-driven (pipeline programs branch on pop feedback); the
// simulator is deterministic, so replaying the file under the same machine
// reproduces the recorded result exactly. Both runs go through Simulate,
// the step the sweep engine's cells and references go through, so the
// engine's replay of the file is byte-identical to its live run of s. The
// file's header passes trace.Header.Check before anything simulates.
func Record(cfg sim.Config, s Spec, threads int) (*trace.File, sim.Result, error) {
	fail := func(err error) (*trace.File, sim.Result, error) { return nil, sim.Result{}, err }
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	if s.Kind == KindTrace {
		return fail(fmt.Errorf("workload %s: already a trace replay; copy the trace file instead of re-recording it", s.Name))
	}
	if threads < 1 {
		// Simulate reads 0 threads as the sequential reference.
		return fail(fmt.Errorf("workload %s: need at least one thread", s.Name))
	}
	label := Benchmark{Spec: s}.FullName()
	s = s.Canonical()

	queues, barriers := s.registrations(threads)
	h := trace.Header{Label: label, LockGrace: s.LockGrace, BarrierGrace: s.BarrierGrace,
		Queues: queues, Barriers: barriers}
	if err := h.Check(threads); err != nil {
		return fail(err)
	}

	// Simulate wraps the programs in thread order, then the reference.
	var recs []*trace.Recorder
	record := func(p trace.Program) trace.Program {
		recs = append(recs, trace.NewRecorder(p))
		return recs[len(recs)-1]
	}
	res, err := Simulate(cfg, s, threads, threads, record)
	if err != nil {
		return fail(err)
	}
	if _, err := Simulate(cfg, s, 0, 0, record); err != nil {
		return fail(err)
	}
	f := &trace.File{Header: h, Sequential: recs[threads].Ops(), Threads: make([][]trace.Op, threads)}
	for i := range f.Threads {
		f.Threads[i] = recs[i].Ops()
	}
	return f, res, nil
}
