package service

import (
	"io"
	"net/http"

	"repro/internal/exp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MaxTraceBytes bounds a POST /v1/traces/analyze body. A 16-thread trace of
// the heaviest registered analogue encodes to ~10MB, so 32MB covers every
// realistic recording with headroom while keeping a hostile upload from
// buffering without bound. Exported so the fleet routing layer buffers
// trace uploads to exactly the same bound.
const MaxTraceBytes = 32 << 20

// handleTraceAnalyze serves POST /v1/traces/analyze: the body is a recorded
// binary op trace (the speedup-stack -record format, internal/trace), decoded
// streaming-style into a replay spec and measured like any other cell. The
// trace replays at its recorded thread count — threads is not a parameter —
// and cores defaults to that count like everywhere else. The cell rides the
// engine's fingerprint-keyed memo under the trace's content hash, so
// re-uploading the same trace (whatever its label) performs zero additional
// simulations.
func (s *Server) handleTraceAnalyze(w http.ResponseWriter, r *http.Request) {
	opts, aerr := parseOptions(r, optionSpec{format: true, mode: true, traceCell: true})
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxTraceBytes))
	if err != nil {
		writeError(w, r, badRequest("reading body: %v", err))
		return
	}
	td, err := trace.Decode(data)
	if err != nil {
		writeError(w, r, badRequest("bad trace: %v", err))
		return
	}
	spec := workload.TraceSpec(td)
	cell, err := checkCellBounds(exp.Cell{Spec: &spec, Threads: spec.TraceThreads(), Cores: opts.cores})
	if err != nil {
		writeError(w, r, asAPIError(err))
		return
	}
	s.serveCells(w, r, opts, cell)
}
