package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
)

// BENCHMARK.json is the table's output, byte for byte, and within the
// contract's limits.
func TestManifestMatchesTable(t *testing.T) {
	var want bytes.Buffer
	if err := manifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `benchmark -manifest`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(endToEnd) != 9 || len(perLayer) != 77 || len(workloads) != 4 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads; want 9, 77, 4", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || setups[w.Name] == nil {
			t.Errorf("workload %s: why is %d characters, set-up %v", w.Name, len(w.Why), setups[w.Name] != nil)
		}
	}
}

func labels(reqs []request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.Label
	}
	return out
}

// The same seed gives the same requests; another seed gives other spec
// fingerprints and another order; every generated spec validates.
func TestRequestGeneration(t *testing.T) {
	gen := func(seed int64) [][]string {
		cold, err := coldRequests(seed, tiny)
		if err != nil {
			t.Fatal(err)
		}
		_, hit := hitRequests(seed, full)
		_, hop, err := hopRequests(seed, full)
		if err != nil {
			t.Fatal(err)
		}
		return [][]string{labels(cold), labels(hit), labels(hop)}
	}
	a, again, b := gen(1), gen(1), gen(2)
	for i, name := range []string{"analyze_cold", "memo_hit", "peer_hop"} {
		if !slices.Equal(a[i], again[i]) {
			t.Errorf("%s: the same seed gave another request list", name)
		}
		if slices.Equal(a[i], b[i]) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
	}
	fingerprints := func(seed int64) map[string]bool {
		reqs, err := coldRequests(seed, tiny)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, r := range reqs {
			var body struct{ Spec json.RawMessage }
			if r.Kind != "analyze" {
				continue
			}
			if err := json.Unmarshal(r.Body, &body); err != nil {
				t.Fatal(err)
			}
			spec, err := workload.ParseSpec(body.Spec)
			if err != nil {
				t.Fatalf("generated spec does not validate: %v", err)
			}
			out[spec.Fingerprint().String()] = true
		}
		return out
	}
	one := fingerprints(1)
	for fp := range fingerprints(2) {
		if one[fp] {
			t.Errorf("seeds 1 and 2 share spec fingerprint %s", fp)
		}
	}
	// peer_hop: 224 raw queries, none addressed to its home.
	warm, hop, _ := hopRequests(1, full)
	home := map[string]int{}
	for _, r := range warm {
		home[r.Label] = r.Node
	}
	raw := map[string]bool{}
	for _, r := range hop {
		if r.Kind == "stack" {
			raw[r.Path] = true
			if r.Node == home[r.Label] {
				t.Fatalf("%s is addressed to its home node", r.Path)
			}
		}
	}
	if len(raw) < 200 || len(raw) > 224 {
		t.Errorf("a block of %d draws used %d raw queries of 224", len(hop), len(raw))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "service.handle", StartNS: 10, EndNS: 90},
		{ID: 3, Parent: 2, Name: "exp.run", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 2, Name: "exp.run", StartNS: 40, EndNS: 70}, // overlaps 3
		{ID: 5, Parent: 2, Name: "exp.run", StartNS: 80, EndNS: 95}, // outlives its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 20, 2: 20, 3: 30, 4: 30, 5: 15} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
}

// A host that runs twice as slow for a while must not show in calibrated
// time, a kernel timing inside a stretch is left out of it, and time the
// CPU clock did not see (the hypervisor's, another process's) is in none.
func TestClockSyntheticSlowdown(t *testing.T) {
	c := &clock{mix: 0.5}
	// Wall-clock runs a quarter ahead of the CPU clock: a fifth is stolen.
	at := func(ms int) stamp {
		cpu := time.Duration(ms) * time.Millisecond
		return stamp{wall: time.Unix(0, 0).Add(cpu * 5 / 4), cpu: cpu}
	}
	for ms := 0; ms < 2000; ms += 50 {
		slow := 1.0
		if ms >= 1000 {
			slow = 2
		}
		c.ticks = append(c.ticks, tick{start: at(ms), end: at(ms + 1), exchanges: 0.5 * slow, pipe: 1.5 * slow})
	}
	quiet, slow := c.scaled(at(405), at(415)), c.scaled(at(1405), at(1425))
	if math.Abs(quiet-0.010) > 1e-9 || math.Abs(slow-0.010) > 1e-9 {
		t.Errorf("10 ms of work: %.6f s when quiet, %.6f s for its 20 ms at half speed, want 0.010 both", quiet, slow)
	}
	// [395,445] holds the kernel at 400.
	if got := c.scaled(at(395), at(445)); math.Abs(got-0.049) > 1e-9 {
		t.Errorf("stretch across a kernel timing: %.6f s, want 0.049", got)
	}
	if got := c.slowdownP50(); got != 1.5 {
		t.Errorf("median slowdown %v, want 1.5", got)
	}
}

// An operation the hypervisor interrupted is left out of the percentiles,
// unless most were.
func TestDisturbedOperationsLeftOut(t *testing.T) {
	loop := func(disturbed int) *loopResult {
		l := &loopResult{reps: []repetition{{}}}
		for i := 0; i < 10; i++ {
			lost := time.Microsecond
			if i < disturbed {
				lost = time.Millisecond
			}
			ran := 100 * time.Microsecond
			l.ops = append(l.ops, op{end: stamp{wall: time.Unix(0, 0).Add(ran + lost), cpu: ran}, ok: true})
			l.ops[i].start.wall = time.Unix(0, 0)
			l.lat = append(l.lat, ran.Seconds())
		}
		return l
	}
	if n := len(loop(2).latenciesMS()); n != 8 {
		t.Errorf("2 of 10 operations disturbed: %d latencies, want 8", n)
	}
	if n := len(loop(6).latenciesMS()); n != 10 {
		t.Errorf("6 of 10 operations disturbed: %d latencies, want all 10", n)
	}
}

// A smoke run of all four workloads at tiny sizes: exactly the names in
// BENCHMARK.json are printed, each well-formed, with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	var manifestFile struct {
		Workloads          []workloadInfo
		EndToEnd, PerLayer []metric
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(raw["workloads"], &manifestFile.Workloads)
	json.Unmarshal(raw["end_to_end"], &manifestFile.EndToEnd)
	json.Unmarshal(raw["per_layer"], &manifestFile.PerLayer)
	out := t.TempDir()
	for _, w := range manifestFile.Workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := run(context.Background(), options{workload: w.Name, seed: 7, seconds: 0.4, trace: traced, sz: tiny, out: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := manifestFile.EndToEnd
			if traced {
				want = manifestFile.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !nameRE.MatchString(m.Name) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, traced, m.Name, v, ok, m.Unit)
				}
			}
			if !traced {
				if res.Metrics["success_ratio"].Value != 1 {
					t.Errorf("%s: success_ratio %v", w.Name, res.Metrics["success_ratio"].Value)
				}
				continue
			}
			shares := 0.0
			for _, s := range []string{"gen", "cache", "atd", "mem", "other"} {
				shares += res.Metrics["sim."+s+"_share"].Value
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("%s: sim shares sum to %v", w.Name, shares)
			}
			var spans []span
			data, err := os.ReadFile(filepath.Join(out, w.Name+"-spans.json"))
			if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
				t.Fatalf("%s: span file: %v, %d spans", w.Name, err, len(spans))
			}
			children := map[int]int{}
			for _, s := range spans {
				children[s.Parent]++
			}
			for _, s := range spans {
				if s.Name == "client.request" && children[s.ID] == 0 {
					t.Errorf("%s: client.request %d (%s) has no children", w.Name, s.ID, s.Attr)
				}
			}
		}
	}
}

// A wrong output is counted as a failure, not hidden.
func TestFaultFailsTheRun(t *testing.T) {
	res, _, err := run(context.Background(), options{workload: "memo_hit", seed: 1, seconds: 0.1, sz: tiny, fault: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("a corrupted check gave correct %v with %d failures", res.Correct, res.Failed)
	}
}
