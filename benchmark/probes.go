package main

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"time"

	"repro/internal/atd"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/mem"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The isolated layer probes of the traced run: medians of calls into each
// layer's public functions, on fixed inputs that do not depend on the
// workload or the seed, so a layer's number means the same in all four
// traced runs. Raw host time: a probe lasts milliseconds, and the traced
// run's host.slowdown_p50 says what the host was doing.

// timeNS returns the median time of f over n timings of batch calls each,
// in nanoseconds per call.
func timeNS(n, batch int, f func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		v[i] = float64(time.Since(t0)) / float64(batch)
	}
	return median(v)
}

// drain pulls a program's whole stream and returns its length.
func drain(p trace.Program, buf []trace.Op) (ops int) {
	bp, batched := p.(trace.BatchProgram)
	for {
		n := 1
		if batched {
			n = bp.NextBatch(buf, trace.Feedback{PopOK: true})
		} else {
			buf[0] = p.Next(trace.Feedback{PopOK: true})
		}
		ops += n
		if buf[n-1].Kind == trace.KindEnd {
			return ops
		}
	}
}

func probes(ctx context.Context, sz sizes, m map[string]float64) error {
	threads := sz.threads
	cellName, sweepNames, reps := "cholesky_splash2", []string{"lud_rodinia", "fft_splash2", "srad_rodinia", "radix_splash2"}, 5
	if sz.tiny {
		cellName, sweepNames, reps = tinyAnalogues[0], tinyAnalogues, 2
	}
	b, _ := workload.ByName(cellName)
	spec := b.Spec
	buf := make([]trace.Op, 256)

	// workload: generator cost per op, one analogue per family, and the
	// fingerprint every request computes.
	for family, name := range map[string]string{"data_parallel": "lud_rodinia", "task_queue": "freqmine_parsec_small", "pipeline": "dedup_parsec_small"} {
		fb, _ := workload.ByName(name)
		ops := 0
		ns := timeNS(reps, 1, func() {
			p, err := fb.Spec.Sequential()
			if err != nil {
				panic(err) // registry specs validate
			}
			ops = drain(p, buf)
		})
		m["workload.gen_ns_per_op."+family] = ns / float64(ops)
	}
	m["workload.fingerprint_us"] = timeNS(9, 20, func() { spec.Fingerprint() }) / 1e3

	// sim: one cell in each mode, and what one run allocates.
	cfg := sim.Default().WithCores(threads)
	cfg.Policy = spec.TunePolicy(cfg.Policy)
	var res sim.Result
	runCell := func(c sim.Config, opts ...sim.Option) func() {
		return func() {
			progs, err := spec.Parallel(threads)
			if err == nil {
				res, err = sim.Run(c, progs, append(spec.PipelineOptions(threads), opts...)...)
			}
			if err != nil {
				panic(err)
			}
		}
	}
	runCell(cfg)() // fill the machine pool
	ops := float64(res.TotalOps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runCell(cfg)()
	runtime.ReadMemStats(&ms1)
	m["sim.allocs_per_run"] = float64(ms1.Mallocs - ms0.Mallocs)
	m["sim.ops"] = ops
	exactNS := timeNS(reps, 1, runCell(cfg))
	exact := res
	m["sim.exact_ns_per_op"] = exactNS / ops
	m["sim.fast_ns_per_op"] = timeNS(reps, 1, runCell(cfg.WithMode(sim.ModeFast))) / ops
	m["sim.intervals_ns_per_op"] = timeNS(reps, 1, runCell(cfg, sim.WithIntervals(uint64(ops)/32+1))) / ops
	var seq sim.Result
	seqNS := timeNS(reps, 1, func() {
		p, err := spec.Sequential()
		if err == nil {
			seq, err = sim.RunSequential(cfg, p, sim.WithoutAccounting())
		}
		if err != nil {
			panic(err)
		}
	})
	m["sim.seq_ns_per_op"] = seqNS / float64(seq.TotalOps)
	m["core.estimate_ns"] = timeNS(9, 100, func() { core.EstimateComponents(exact.Tp, exact.PerThread) })

	// sim's shares: record the cell's op streams, then put them through
	// each hardware model alone. What is left of the exact run's time is
	// the scheduler, sync, cpu and dispatch.
	genNS := timeNS(reps, 1, func() {
		progs, _ := spec.Parallel(threads)
		for _, p := range progs {
			drain(p, buf)
		}
	})
	file, _, err := workload.Record(sim.Default(), spec, threads)
	if err != nil {
		return err
	}
	type access struct {
		core  int
		addr  uint64
		write bool
	}
	var accesses []access
	for i := 0; ; i++ { // round-robin, as threads interleave
		live := false
		for t, stream := range file.Threads {
			if i < len(stream) {
				live = true
				if k := stream[i].Kind; k == trace.KindLoad || k == trace.KindStore {
					accesses = append(accesses, access{t, stream[i].Addr, k == trace.KindStore})
				}
			}
		}
		if !live {
			break
		}
	}
	var hier *cache.Hierarchy
	var llcLevel, misses []access
	cacheNS := timeNS(reps, 1, func() {
		hier = cache.NewHierarchy(threads, cfg.L1, cfg.LLC)
		llcLevel, misses = llcLevel[:0], misses[:0]
		for _, a := range accesses {
			out := hier.Access(a.core, a.addr, a.write)
			if !out.L1Hit {
				llcLevel = append(llcLevel, a)
				if !out.LLCHit {
					misses = append(misses, a)
				}
			}
		}
	})
	hs := hier.Stats()
	var l1Hits, llcHits float64
	for i := range hs.L1Hits {
		l1Hits += float64(hs.L1Hits[i])
		llcHits += float64(hs.LLCHits[i])
	}
	m["cache.accesses"] = float64(len(accesses))
	m["cache.access_ns"] = ratio(cacheNS, float64(len(accesses)))
	m["cache.l1_hit_ratio"] = ratio(l1Hits, float64(len(accesses)))
	m["cache.llc_hit_ratio"] = ratio(llcHits, float64(len(llcLevel)))

	// The simulator keeps two tag directories per core: the sampled
	// estimator and the full-coverage oracle.
	atdCfg := atd.Config{Sets: cfg.LLC.Sets(), Ways: cfg.LLC.Ways, LineBytes: cfg.LLC.LineBytes, SampleShift: cfg.ATDSampleShift, TagBits: 24}
	oracleCfg := atdCfg
	oracleCfg.SampleShift = 0
	var sampled uint64
	atdNS := timeNS(reps, 1, func() {
		est, oracle := make([]*atd.Directory, threads), make([]*atd.Directory, threads)
		for i := range est {
			est[i], oracle[i] = atd.New(atdCfg), atd.New(oracleCfg)
		}
		for _, a := range llcLevel {
			est[a.core].Access(a.addr)
			oracle[a.core].Access(a.addr)
		}
		sampled = 0
		for _, d := range est {
			sampled += d.SampledAccesses()
		}
	})
	m["atd.access_ns"] = ratio(atdNS, float64(len(llcLevel)))
	m["atd.sampled_ratio"] = ratio(float64(sampled), float64(len(llcLevel)))

	var memStats mem.Stats
	memNS := timeNS(reps, 1, func() {
		ctl := mem.NewController(cfg.Mem, threads)
		for i, a := range misses {
			ctl.Access(uint64(i)*cfg.Mem.BusCycles, a.core, a.addr)
		}
		memStats = ctl.Stats()
	})
	m["mem.accesses"] = float64(memStats.Accesses)
	m["mem.access_ns"] = ratio(memNS, float64(memStats.Accesses))
	m["mem.row_hit_ratio"] = ratio(float64(memStats.RowHits), float64(memStats.Accesses))

	m["sim.gen_share"] = genNS / exactNS
	m["sim.cache_share"] = cacheNS / exactNS
	m["sim.atd_share"] = atdNS / exactNS
	m["sim.mem_share"] = memNS / exactNS
	m["sim.other_share"] = 1 - (genNS+cacheNS+atdNS+memNS)/exactNS

	// trace: the recorded cell through the file format.
	var enc bytes.Buffer
	if err := file.Encode(&enc); err != nil {
		return err
	}
	var data *trace.Data
	decodeNS := timeNS(reps, 1, func() {
		if data, err = trace.Decode(enc.Bytes()); err != nil {
			panic(err) // the encoder's own output
		}
	})
	replayNS := timeNS(reps, 1, func() {
		for i := 0; i < data.Threads(); i++ {
			drain(data.ThreadProgram(i), buf)
		}
	})
	recorded := float64(data.TotalOps())
	m["trace.bytes_per_op"] = float64(enc.Len()) / recorded
	m["trace.decode_ns_per_op"] = decodeNS / recorded
	m["trace.replay_ns_per_op"] = replayNS / recorded

	// exp: the memo-hit path, and the one probe that uses every core — the
	// same sweep at nproc workers over one worker.
	cells := make([]exp.Cell, len(sweepNames))
	for i, name := range sweepNames {
		cells[i] = exp.Cell{Bench: name, Threads: threads}
	}
	sweep := func(workers int) (float64, *exp.Engine, error) {
		e := exp.NewEngine(sim.Default(), exp.WithWorkers(workers))
		t0 := time.Now()
		_, err := e.Sweep(ctx, cells)
		return time.Since(t0).Seconds(), e, err
	}
	one, engine, err := sweep(1)
	if err != nil {
		return err
	}
	m["exp.memo_hit_us"] = timeNS(9, 20, func() { engine.Sweep(ctx, cells[:1]) }) / 1e3
	nproc := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(nproc)
	all, _, err := sweep(nproc)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	m["exp.parallel_efficiency"] = one / all / float64(nproc)

	// stack, scaling, whatif: every encoder on one real document each.
	outs, err := engine.Sweep(ctx, cells[:1])
	if err != nil {
		return err
	}
	bars := []stack.Bar{{Label: outs[0].Bench.FullName(), Stack: outs[0].Stack}}
	for _, f := range stackFormats {
		m["stack.encode_us."+f] = timeNS(9, 5, func() { stack.Encode(io.Discard, stack.Format(f), bars) }) / 1e3
	}
	small := exp.Request{Cell: exp.Cell{Bench: tinyAnalogues[0], Threads: threads}}
	series, err := engine.MeasureIntervals(ctx, small, 32)
	if err != nil {
		return err
	}
	m["stack.timeseries_encode_us"] = timeNS(9, 5, func() { stack.EncodeTimeSeries(io.Discard, stack.FormatJSON, series.Series) }) / 1e3
	advice, err := engine.Advise(ctx, small, threads)
	if err != nil {
		return err
	}
	m["scaling.fit_us"] = timeNS(9, 5, func() { scaling.FitAmdahl(advice.Points); scaling.FitUSL(advice.Points) }) / 1e3
	m["scaling.encode_us"] = timeNS(9, 5, func() { scaling.Encode(io.Discard, stack.FormatJSON, advice) }) / 1e3
	report, err := engine.WhatIf(ctx, small, nil)
	if err != nil {
		return err
	}
	catalog := whatif.Catalog()
	m["whatif.predict_us"] = timeNS(9, 20, func() {
		for _, iv := range catalog {
			whatif.PredictGain(outs[0].Stack, iv)
		}
	}) / 1e3
	m["whatif.encode_us"] = timeNS(9, 5, func() { whatif.Encode(io.Discard, stack.FormatJSON, report) }) / 1e3

	ring, err := fleet.NewRing(fleetMembers)
	if err != nil {
		return err
	}
	key := spec.Fingerprint().String()
	m["fleet.ring_lookup_ns"] = timeNS(9, 100, func() { ring.Owner(key) })
	return nil
}
