package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request generation: everything the service workloads send is built here
// from the seed, before timing starts. The seed perturbs the seed field of
// every inline spec and shuffles request order; the program under test only
// ever sees the generated requests.

// request is one operation of a service workload.
type request struct {
	// Kind names the endpoint use: stack, intervals, analyze, analyze_fast,
	// advise, whatif, traces or sweep (the service.handle_us_p50.* suffixes).
	Kind   string
	Method string
	Path   string // with query
	Body   []byte
	CType  string
	Node   int // which server takes the request
	// ErrRow marks a reply that is one exact-mode JSON row at the top thread
	// count (16), the input of est_err_pct_16t.
	ErrRow bool
	// Label is the request's stable identity: the key of its pinned digest
	// in expected.json and of its reference reply.
	Label string
}

// sizes scales the workloads; full is what the benchmark measures, tiny is
// what `go test` smokes.
type sizes struct {
	tiny                                     bool
	coldSessions, hitAnalogues, hopAnalogues int
	threads, lowThreads, traceThreads        int
	block                                    int // requests per memo_hit/peer_hop repetition
	sweepCells                               int
}

var (
	full = sizes{coldSessions: 8, hitAnalogues: 12, hopAnalogues: 14, threads: 16, lowThreads: 4, traceThreads: 4, block: 4000, sweepCells: 8}
	tiny = sizes{tiny: true, coldSessions: 2, hitAnalogues: 2, hopAnalogues: 2, threads: 4, lowThreads: 2, traceThreads: 2, block: 40, sweepCells: 2}
)

// tinyAnalogues are the cheapest registry cells, so a smoke run simulates
// for milliseconds.
var tinyAnalogues = []string{"swaptions_parsec_small", "blackscholes_parsec_small"}

// analogues returns n registry analogues, evenly spaced over Figure 6's
// order so every family and scaling class is drawn from.
func analogues(sz sizes, n int) []workload.Benchmark {
	all := workload.All()
	out := make([]workload.Benchmark, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
		if sz.tiny {
			out[i], _ = workload.ByName(tinyAnalogues[i%len(tinyAnalogues)])
		}
	}
	return out
}

func get(kind, path string, q ...string) request {
	v := ""
	for i := 0; i < len(q); i += 2 {
		if i > 0 {
			v += "&"
		}
		v += q[i] + "=" + url.QueryEscape(q[i+1])
	}
	p := path + "?" + v
	return request{Kind: kind, Method: "GET", Path: p, Label: "GET " + p}
}

func post(kind, path string, body any) request {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // the bodies are maps of strings, numbers and specs
	}
	return request{Kind: kind, Method: "POST", Path: path, Body: data, CType: "application/json",
		Label: fmt.Sprintf("POST %s %s", path, digest(data))}
}

func shuffle[T any](rng *rand.Rand, v []T) {
	rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}

// coldRequests builds analyze_cold's pass: one session per analogue, each a
// seed-perturbed inline spec measured exact, fast and time-resolved, then a
// what-if and an advise, and for every fourth analogue the replay of a
// trace recorded here. Sessions are shuffled; a session's requests stay in
// order, as a user exploring one workload would send them.
func coldRequests(seed int64, sz sizes) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var sessions [][]request
	for i, b := range analogues(sz, sz.coldSessions) {
		spec := b.Spec
		spec.Name = fmt.Sprintf("%s-s%d", spec.Name, seed)
		spec.Seed ^= uint64(seed) * 0x9E3779B97F4A7C15
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		cell := map[string]any{"spec": spec, "threads": sz.threads}
		exact := post("analyze", "/v1/workloads/analyze", cell)
		exact.ErrRow = true
		fast := post("analyze_fast", "/v1/workloads/analyze?mode=fast", cell)
		s := []request{exact, fast,
			post("intervals", "/v1/workloads/analyze", map[string]any{"spec": spec, "threads": sz.threads, "intervals": 32}),
			post("whatif", "/v1/whatif", cell),
			get("advise", "/v1/advise", "bench", b.FullName(), "max_threads", fmt.Sprint(sz.threads)),
		}
		if i%4 == 0 {
			f, _, err := workload.Record(sim.Default(), spec, sz.traceThreads)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := f.Encode(&buf); err != nil {
				return nil, err
			}
			s = append(s, request{Kind: "traces", Method: "POST", Path: "/v1/traces/analyze", Body: buf.Bytes(),
				CType: "application/octet-stream", Label: "POST /v1/traces/analyze " + digest(buf.Bytes())})
		}
		sessions = append(sessions, s)
	}
	// Sessions with a trace go first: what the 32-cell memo still holds when
	// the pass ends (live_heap_mb) then does not depend on the seed's order.
	shuffle(rng, sessions)
	var reqs, tail []request
	for _, s := range sessions {
		if s[len(s)-1].Kind == "traces" {
			reqs = append(reqs, s...)
		} else {
			tail = append(tail, s...)
		}
	}
	return append(reqs, tail...), nil
}

var stackFormats = []string{"json", "csv", "svg", "text", "ndjson"}

func sweepRequest(cells []map[string]any) request {
	return post("sweep", "/v1/sweep?format=ndjson", map[string]any{"cells": cells})
}

// hitRequests builds memo_hit's distinct requests (the warm-up sends each
// once) and the block one repetition cycles through: the distinct requests
// in seeded order, every tenth a streamed sweep of warmed cells.
func hitRequests(seed int64, sz sizes) (distinct, block []request) {
	rng := rand.New(rand.NewSource(seed))
	var cells []map[string]any
	for i, b := range analogues(sz, sz.hitAnalogues) {
		name, n := b.FullName(), fmt.Sprint(sz.threads)
		for _, f := range stackFormats {
			r := get("stack", "/v1/stack", "bench", name, "threads", n, "format", f)
			r.ErrRow = f == "json"
			distinct = append(distinct, r)
		}
		if i%4 == 0 {
			distinct = append(distinct,
				get("intervals", "/v1/stack/intervals", "bench", name, "threads", n, "intervals", "32"),
				get("advise", "/v1/advise", "bench", name, "max_threads", n),
				post("whatif", "/v1/whatif", map[string]any{"bench": name, "threads": sz.threads}))
		}
		if len(cells) < sz.sweepCells {
			cells = append(cells, map[string]any{"bench": name, "threads": sz.threads})
		}
	}
	sweep := sweepRequest(cells)
	shuffle(rng, distinct)
	for i := 0; len(block) < sz.block; i++ {
		if len(block)%10 == 9 {
			block = append(block, sweep)
			continue
		}
		block = append(block, distinct[i%len(distinct)])
	}
	return append(distinct, sweep), block
}

// fleetMembers are the fixed member names of peer_hop's two nodes. The ring
// hashes member names, so fixed names home every workload on the same node
// on every boot; the peers' HTTP client dials them to the real listeners.
var fleetMembers = []string{"http://node-0.speedupd.bench", "http://node-1.speedupd.bench"}

// hopRequests builds peer_hop's queries — every analogue x two thread
// counts x four formats, each in two parameter orders — with Node set to
// the query's non-home node, and the block one repetition sends: uniform
// seeded draws, every tenth a streamed sweep whose cells have both homes.
// warm lists each query once, addressed to its home.
func hopRequests(seed int64, sz sizes) (warm, block []request, err error) {
	rng := rand.New(rand.NewSource(seed))
	ring, err := fleet.NewRing(fleetMembers)
	if err != nil {
		return nil, nil, err
	}
	var queries []request
	cellsByHome := make([][]map[string]any, len(fleetMembers))
	for _, b := range analogues(sz, sz.hopAnalogues) {
		home := 0
		if ring.Owner(b.Spec.Fingerprint().String()) == fleetMembers[1] {
			home = 1
		}
		name := b.FullName()
		cellsByHome[home] = append(cellsByHome[home], map[string]any{"bench": name, "threads": sz.threads})
		for _, n := range []int{sz.lowThreads, sz.threads} {
			for _, f := range stackFormats[:4] {
				a := get("stack", "/v1/stack", "bench", name, "threads", fmt.Sprint(n), "format", f)
				a.ErrRow = f == "json" && n == sz.threads
				rev := get("stack", "/v1/stack", "format", f, "threads", fmt.Sprint(n), "bench", name)
				rev.Label, rev.ErrRow = a.Label, a.ErrRow // same reply, other raw query
				a.Node, rev.Node = 1-home, 1-home
				queries = append(queries, a, rev)
				h := a
				h.Node = home
				warm = append(warm, h)
			}
		}
	}
	// A mixed-home sweep when the ring gives both nodes something to own.
	var cells []map[string]any
	for i := 0; len(cells) < sz.sweepCells; i++ {
		if c := cellsByHome[i%2]; i/2 < len(c) {
			cells = append(cells, c[i/2])
		} else if i/2 >= len(cellsByHome[0]) && i/2 >= len(cellsByHome[1]) {
			break
		}
	}
	sweep := sweepRequest(cells)
	warm = append(warm, sweep)
	for len(block) < sz.block {
		if len(block)%10 == 9 {
			s := sweep
			s.Node = len(block) / 10 % 2
			block = append(block, s)
			continue
		}
		block = append(block, queries[rng.Intn(len(queries))])
	}
	return warm, block, nil
}
