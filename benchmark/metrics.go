package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// metric is one row of the metric table. The table is the single source for
// the result line, the comparer's bounds and BENCHMARK.json (manifest()
// prints that file; TestManifestMatchesTable pins the committed copy to it).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures: the longest the cap on all runs
// together allows with a margin (README, "Run length and time budget").
const runSeconds = 30

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{"eval_all", "library path: regenerates Figure 1, the validation table and Figures 4-9 on a fresh one-worker engine; >=99% simulator time, output pinned by the golden SHA-256"},
	{"analyze_cold", "service path where every request simulates: exact, fast, interval, what-if, advise and trace-replay requests against a fresh speedupd whose 32-cell memo evicts while it fills"},
	{"memo_hit", "service path where nothing simulates: ~70 warmed stack/intervals/advise/what-if/sweep requests, so all time is parsing, memo lookup, encoding and net/http"},
	{"peer_hop", "fleet path: every query goes to its non-home node of a two-node fleet with a working set 3.5x the peer cache, in two parameter orders, so forward and cache hit are both measured"},
}

var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.20},
	{"req_per_s", "1/s", "higher", 0.20},
	{"lat_p50_ms", "ms", "lower", 0.20},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"success_ratio", "ratio", "higher", 0.01},
	{"alloc_kb_per_op", "kB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"est_err_pct_16t", "%", "lower", 0.05},
}

func lower(unit string, names ...string) []metric {
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = metric{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metric {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(groups ...[]metric) []metric {
	var out []metric
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer lists the traced run's metrics, layer by layer (the layers are
// the repo's packages). Counts are "lower" where less work for the same
// output is the improvement and "higher" where they are hit ratios.
var perLayer = concat(
	lower("ns", "trace.decode_ns_per_op", "trace.replay_ns_per_op"),
	lower("B", "trace.bytes_per_op"),
	lower("ns", "workload.gen_ns_per_op.data_parallel", "workload.gen_ns_per_op.task_queue", "workload.gen_ns_per_op.pipeline"),
	lower("us", "workload.fingerprint_us"),
	lower("ns", "cache.access_ns"),
	higher("ratio", "cache.l1_hit_ratio", "cache.llc_hit_ratio"),
	lower("count", "cache.accesses"),
	lower("ns", "atd.access_ns"),
	lower("ratio", "atd.sampled_ratio"),
	lower("ns", "mem.access_ns"),
	higher("ratio", "mem.row_hit_ratio"),
	lower("count", "mem.accesses"),
	lower("ns", "core.estimate_ns"),
	lower("ns", "sim.exact_ns_per_op", "sim.fast_ns_per_op", "sim.seq_ns_per_op", "sim.intervals_ns_per_op"),
	lower("count", "sim.ops", "sim.allocs_per_run"),
	lower("ratio", "sim.gen_share", "sim.cache_share", "sim.atd_share", "sim.mem_share", "sim.other_share"),
	lower("count", "exp.cell_runs", "exp.seq_runs"),
	higher("count", "exp.cell_hits"),
	lower("count", "exp.interval_runs", "exp.simulated_ops", "exp.cell_evictions"),
	higher("1/s", "exp.mops_per_s"),
	lower("ms", "exp.cell_ms_p50", "exp.cell_ms_p95"),
	lower("us", "exp.memo_hit_us"),
	higher("ratio", "exp.worker_busy_share", "exp.parallel_efficiency"),
	lower("us", "stack.encode_us.json", "stack.encode_us.csv", "stack.encode_us.svg", "stack.encode_us.text", "stack.encode_us.ndjson",
		"stack.timeseries_encode_us", "scaling.fit_us", "scaling.encode_us", "whatif.predict_us", "whatif.encode_us"),
	lower("us", "service.handle_us_p50.stack", "service.handle_us_p50.intervals", "service.handle_us_p50.analyze",
		"service.handle_us_p50.analyze_fast", "service.handle_us_p50.advise", "service.handle_us_p50.whatif",
		"service.handle_us_p50.traces", "service.handle_us_p50.sweep", "service.self_us_p50"),
	lower("B", "service.resp_bytes_p50"),
	lower("count", "service.non_200"),
	lower("ratio", "fleet.forward_ratio"),
	higher("ratio", "fleet.peer_cache_hit_ratio"),
	lower("count", "fleet.peer_errors"),
	lower("us", "fleet.hop_self_us_p50", "fleet.cache_hit_us_p50", "fleet.home_us_p50"),
	lower("ns", "fleet.ring_lookup_ns"),
	lower("us", "client.rtt_overhead_us_p50"),
	lower("ms", "client.lat_p99_ms"),
	lower("us", "host.cpu_us_per_op"),
	lower("ms", "host.gc_pause_ms"),
	lower("count", "host.gc_cycles"),
	lower("MB", "host.peak_rss_mb"),
	lower("ratio", "host.slowdown_p50"),
	lower("s", "host.raw_wall_s"),
	lower("%", "host.trace_overhead_pct"),
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest writes BENCHMARK.json from the tables above.
func manifest(w io.Writer) error {
	perLayerOut := make([]map[string]string, len(perLayer))
	for i, m := range perLayer {
		perLayerOut[i] = map[string]string{"name": m.Name, "unit": m.Unit, "better": m.Better}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayerOut,
	})
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pick builds the printed metric set from measured values: exactly the
// table's names, each with its unit. A name the run did not measure is a
// bug in the benchmark, not a zero.
func pick(table []metric, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(table))
	for _, m := range table {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, nil
}
