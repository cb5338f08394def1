package main

import (
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// loopResult is one measured loop: the one loop all four workloads share.
type loopResult struct {
	ops               []op
	reps              []repetition
	attempted, failed int
	allocBytes        float64 // per operation, over the collector-off repetition
	// Process-wide deltas over the timed repetitions.
	gcPauseNS, gcCycles, cpuUS float64
	firstSpan                  int // index into the recorder of the loop's first span
	// Filled in by calibrate: per-operation latencies in seconds, and each
	// repetition's time, calibrated and raw.
	lat, calibrated, raw []float64
	cpuShare             float64 // of the timed operations' wall-clock, what the CPU clock saw
}

// repetition is one pass: ops[first:last], and the layers' counters over it.
type repetition struct {
	first, last int
	counts      map[string]float64
	firstSpan   int
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// measure repeats the workload until the deadline. No repetition starts
// that would overrun it, judged by the longest so far; one always runs.
//
// With allocRep, one repetition runs first with the collector off and is
// left out of the timings: the simulator pools its machines in sync.Pools,
// which a collection empties, so with the collector on the bytes allocated
// depend on when collections happen to fall (14.7% spread run to run on
// eval_all). With it off they repeat, and they are what alloc_kb_per_op is.
func measure(e *env, st *state, deadline time.Time, allocRep bool) (*loopResult, error) {
	res := &loopResult{ops: make([]op, 0, 1<<16), firstSpan: e.rec.len()}
	var ms0, ms1 runtime.MemStats
	if allocRep {
		if st.reset != nil {
			if err := st.reset(); err != nil {
				return nil, err
			}
		}
		gc := debug.SetGCPercent(-1)
		e.clk.paused = true // the kernel allocates too
		runtime.ReadMemStats(&ms0)
		err := st.rep(&res.ops)
		runtime.ReadMemStats(&ms1)
		e.clk.paused = false
		debug.SetGCPercent(gc)
		runtime.GC()
		if err != nil {
			return nil, err
		}
		res.allocBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(res.ops))
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuMicros()
	var longest time.Duration
	for k := 0; k == 0 || time.Now().Add(longest).Before(deadline); k++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if st.reset != nil {
			if err := st.reset(); err != nil {
				return nil, err
			}
		}
		before, err := counts(e, st)
		if err != nil {
			return nil, err
		}
		rep := repetition{first: len(res.ops), firstSpan: e.rec.len()}
		e.clk.tick()
		start := time.Now()
		if err := st.rep(&res.ops); err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(start))
		e.clk.tick()
		rep.last = len(res.ops)
		after, err := counts(e, st)
		if err != nil {
			return nil, err
		}
		for name, v := range after {
			after[name] = v - before[name]
		}
		rep.counts = after
		res.reps = append(res.reps, rep)
	}
	e.clk.force()
	e.clk.force()
	runtime.ReadMemStats(&ms1)
	res.cpuUS = cpuMicros() - cpu0
	res.gcPauseNS = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	res.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	res.calibrate(e.clk)
	res.attempted = len(res.ops)
	for _, o := range res.ops {
		if !o.ok {
			res.failed++
		}
	}
	return res, nil
}

// counts reads the layers' counters, in traced loops only: the scrape is a
// request of its own, and untraced loops report none of them.
func counts(e *env, st *state) (map[string]float64, error) {
	if !e.rec.isOn() {
		return map[string]float64{}, nil
	}
	return st.counts()
}

// calibrate reads every timed operation off the calibrated clock, once: lat
// is each operation's latency in seconds, and a repetition's time is the sum
// of its operations' (so the client's checking is not in it), calibrated and raw.
func (l *loopResult) calibrate(c *clock) {
	base := l.reps[0].first // operations before it belong to the collector-off repetition
	l.lat = make([]float64, len(l.ops)-base)
	for i, o := range l.ops[base:] {
		l.lat[i] = c.scaled(o.start, o.end)
	}
	var cpu, wall float64
	for _, r := range l.reps {
		var cal, raw float64
		for i, o := range l.ops[r.first:r.last] {
			cal += l.lat[r.first-base+i]
			raw += o.end.wall.Sub(o.start.wall).Seconds()
			cpu += (o.end.cpu - o.start.cpu).Seconds()
		}
		l.calibrated, l.raw = append(l.calibrated, cal), append(l.raw, raw)
		wall += raw
	}
	l.cpuShare = cpu / wall
}

// latenciesMS returns the latencies, in milliseconds, that the percentiles
// are taken over. An operation that lost the CPU for more than a quarter of
// the time it ran is left out: the millisecond the hypervisor took is not in
// its CPU time, but the cold cache it came back to is, and at a few per cent
// of the operations in a busy phase those would be the tail. With most
// operations disturbed there is nothing to prefer, and all count.
func (l *loopResult) latenciesMS() []float64 {
	timed := l.ops[l.reps[0].first:]
	ms := make([]float64, 0, len(timed))
	for i, o := range timed {
		ran := o.end.cpu - o.start.cpu
		if o.end.wall.Sub(o.start.wall)-ran <= ran/4 {
			ms = append(ms, 1e3*l.lat[i])
		}
	}
	if len(ms) < len(timed)/2 {
		ms = ms[:0]
		for _, v := range l.lat {
			ms = append(ms, 1e3*v)
		}
	}
	return ms
}

// endToEnd fills in the end-to-end metrics of an untraced loop.
func (l *loopResult) endToEnd(e *env, st *state, m map[string]float64) {
	walls := l.calibrated
	rates := make([]float64, len(walls))
	for i, r := range l.reps {
		ok := 0
		for _, o := range l.ops[r.first:r.last] {
			if o.ok {
				ok++
			}
		}
		rates[i] = float64(ok) / walls[i]
	}
	lat := l.latenciesMS()
	m["wall_s"] = median(walls)
	m["req_per_s"] = median(rates)
	m["lat_p50_ms"] = median(lat)
	m["lat_p95_ms"] = quantile(lat, 0.95)
	if len(lat) < 20 {
		// Too few operations for a tail: both are the median repetition.
		m["lat_p95_ms"] = m["lat_p50_ms"]
	}
	m["success_ratio"] = float64(l.attempted-l.failed) / float64(l.attempted)
	m["alloc_kb_per_op"] = l.allocBytes / 1024
	sum := 0.0
	for _, v := range st.errs {
		sum += v
	}
	m["est_err_pct_16t"] = sum / float64(max(1, len(st.errs)))
	// Live heap with the servers still up but every sample of the loop gone:
	// there are as many as the host's speed allowed.
	l.ops, l.lat, l.calibrated, l.raw = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
}

// lastSpans returns the spans of the loop's last repetition, re-read from
// the recorder: the content of the span file.
func (l *loopResult) lastSpans(e *env) []span {
	return e.rec.snapshot(l.reps[len(l.reps)-1].firstSpan)
}

// perLayer fills in the traced loop's per-layer metrics: counters over the
// last repetition, span statistics over the whole traced loop, and the
// process's own costs. plain is the untraced loop that ran before it.
func (l *loopResult) perLayer(e *env, plain *loopResult, m map[string]float64) {
	last := l.reps[len(l.reps)-1]
	c := last.counts
	for _, name := range []string{"cell_runs", "seq_runs", "cell_hits", "interval_runs", "simulated_ops", "cell_evictions"} {
		m["exp."+name] = c[name]
	}
	m["service.non_200"] = c["non_200"]
	m["fleet.peer_errors"] = c["peer_errors"]
	m["fleet.forward_ratio"] = ratio(c["forwarded"], c["forwarded"]+c["peer_hits"]+c["local"])
	m["fleet.peer_cache_hit_ratio"] = ratio(c["peer_hits"], c["peer_hits"]+c["forwarded"])

	spans := e.rec.snapshot(l.firstSpan)
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	hasChild := map[int]bool{}
	outermost := map[int]float64{} // trace -> duration of the handler span under client.request
	for _, s := range spans {
		hasChild[s.Parent] = true
		if p, ok := byID[s.Parent]; ok && p.Name == "client.request" && s.Name != "exp.run" {
			outermost[s.Trace] = s.dur()
		}
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var runNS float64
	for _, s := range spans {
		switch s.Name {
		case "client.request":
			if d, ok := outermost[s.Trace]; ok {
				add("client.rtt_overhead_us_p50", (s.dur()-d)/1e3)
			}
		case "service.handle":
			add("service.handle_us_p50."+s.Attr, s.dur()/1e3)
			add("service.self_us_p50", self[s.ID]/1e3)
			add("service.resp_bytes_p50", float64(s.Bytes))
		case "fleet.handle":
			switch p := byID[s.Parent]; {
			case p.Name == "fleet.peer_rtt":
				add("fleet.home_us_p50", s.dur()/1e3)
			case s.Attr == "sweep":
			case hasChild[s.ID]:
				add("fleet.hop_self_us_p50", self[s.ID]/1e3)
			default:
				add("fleet.cache_hit_us_p50", s.dur()/1e3)
			}
		case "exp.run":
			runNS += s.dur()
			if strings.HasPrefix(s.Attr, "cell ") {
				add("exp.cell_ms", s.dur()/1e6)
			}
		}
	}
	for _, pm := range perLayer {
		if strings.Contains(pm.Name, "_p50") { // the span medians; 0 where the workload has no such span
			m[pm.Name] = median(samples[pm.Name])
		}
	}
	m["exp.cell_ms_p50"] = median(samples["exp.cell_ms"])
	m["exp.cell_ms_p95"] = quantile(samples["exp.cell_ms"], 0.95)

	total := 0.0
	for _, w := range l.raw {
		total += w
	}
	m["exp.worker_busy_share"] = ratio(runNS/1e9, total)
	simulated := 0.0
	for _, r := range l.reps {
		simulated += r.counts["simulated_ops"]
	}
	m["exp.mops_per_s"] = ratio(simulated/1e6, runNS/1e9)
	m["client.lat_p99_ms"] = quantile(l.latenciesMS(), 0.99)
	m["host.cpu_us_per_op"] = l.cpuUS / float64(l.attempted-l.reps[0].first)
	m["host.gc_pause_ms"] = l.gcPauseNS / 1e6
	m["host.gc_cycles"] = l.gcCycles
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	m["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	m["host.slowdown_p50"] = e.clk.slowdownP50()
	m["host.raw_wall_s"] = median(l.raw)
	m["host.trace_overhead_pct"] = 100 * (median(l.calibrated) - median(plain.calibrated)) / median(plain.calibrated)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
