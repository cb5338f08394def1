// Package exp is the experiment harness: it runs benchmark analogues on the
// simulated machine, pairs each multi-threaded run with its single-threaded
// reference, and regenerates every table and figure of the paper's
// evaluation (Figures 1 and 4-9 plus the Section 6 validation errors).
//
// # The sweep engine
//
// All execution flows through Engine (sweep.go), a concurrent deduplicating
// executor. Callers declare cells — (benchmark, threads, cores) triples,
// optionally bound to an explicit machine configuration — and the engine
// hands the caller's sink one Outcome per declared cell, in declared order,
// once the whole batch has succeeded (Sweep collects them into a slice).
//
// Dedup and memoization semantics:
//
//   - The unit of memoization is (sim.Config, workload fingerprint,
//     threads, cores): two requests are "the same simulation" exactly when
//     the full machine configuration, the canonical workload identity
//     (workload.Spec.Fingerprint — a name-independent hash of the canonical
//     spec) and the normalized run shape agree. Registry names, plain-name
//     aliases and inline custom specs all resolve to fingerprints, so a
//     bring-your-own spec identical to a registered analogue is one
//     simulation. sim.Config is a comparable value struct and the
//     fingerprint a byte array, so keys need no serialization.
//   - Sequential references (the single-threaded run every speedup stack is
//     measured against) are memoized separately, keyed by the machine they
//     run on, sim.Config.Sequential: one core, every field that run never
//     reads reset. One reference serves every thread count of a benchmark
//     and every quantum, spin threshold and exact-mode sample shift.
//   - Memoization is engine-lifetime and singleflight: duplicates within a
//     batch, across batches, and across concurrent batches all collapse
//     onto one execution. A request finding an in-flight entry waits for it
//     rather than re-simulating ("hit" in Stats counts both cases). The
//     three memos — sequential references, cells, interval series — are
//     instances of the repo's one cache, internal/memo, keyed directly by
//     seqKey, cellKey and intervalKey.
//   - Every simulation is a deterministic function of (config, workload),
//     so real errors are memoized like values — retrying cannot help. The
//     one exception is a claim abandoned because its context was canceled
//     before the simulation ran: that entry is removed and the next
//     request re-executes it.
//   - The memos are unbounded by default (right for one-shot figure
//     regeneration, where the cell set is finite and declared up front).
//     Long-running callers bound each with WithCellMemoLimit, which evicts
//     completed entries least-recently-used; an evicted entry re-simulates
//     on its next request and in-flight entries are never evicted.
//
// Worker-pool guarantees:
//
//   - WithWorkers(n) bounds actual simulations engine-wide at n (default
//     GOMAXPROCS). The bound is shared by everything running on the engine:
//     overlapping Sweep/Do calls, sequential references and cells all draw
//     from one semaphore, so a caller can cap machine load with one number.
//   - The bound applies to simulations, not bookkeeping: a cell waiting on
//     another claimant's in-flight work holds no worker slot, so dedup
//     never idles the pool.
//   - Results are delivered in declared order and are byte-identical for a
//     given declared set regardless of the worker count or of how requests
//     interleave — scheduling affects only wall-clock time.
//   - Cancellation is prompt: a canceled context abandons queued cells
//     without waiting for the pool to drain, and a failed cell cancels the
//     rest of its batch (the first failure in declared order is reported,
//     preferring real simulation errors over the cancellations they
//     trigger).
package exp

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// Outcome is one (benchmark, thread-count) measurement: the caller's naming
// of the workload paired with the run the cell memo retains.
type Outcome struct {
	Bench workload.Benchmark
	run
}

// run is one simulated cell with each of its facts once: the sequential
// reference time, the speedup stack, and the oracle terms and op count no
// stack carries. The stack is the one copy of every derived figure —
// thread count N, parallel time Tp, actual speedup S = Ts/Tp, Ŝ (Estimated)
// and Formula (6)'s Error — and is embedded, so an Outcome reads them as
// its own. It holds no naming (identity is the fingerprint, so a memoized
// run may have been simulated under any alias) and nothing whose size grows
// with the run's thread count, so every cell-memo entry is the same size.
type run struct {
	// Ts is the sequential execution time (cycles).
	Ts uint64
	// Stack is the estimated speedup stack with the actual speedup attached.
	core.Stack
	// Oracle is the simulator's omniscient decomposition (sim.Result.Oracle).
	Oracle core.Components
	// TotalOps counts the trace operations the multi-threaded run consumed.
	TotalOps uint64
}
