package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// MinAdviseThreads is the smallest usable sweep top: the advisor's USL fit
// has two parameters and needs at least two multi-threaded samples, so the
// sweep must reach 3 threads.
const MinAdviseThreads = 3

// AdviseThreads returns the advisor's sweep schedule for a top of max:
// powers of two from 1, plus max itself. The geometric spacing samples the
// curve where it bends without making the sweep cost quadratic in max.
func AdviseThreads(max int) []int {
	out := make([]int, 0, 8)
	for n := 1; n < max; n *= 2 {
		out = append(out, n)
	}
	return append(out, max)
}

// Advise runs the advisor's thread sweep for one workload and fits the
// scaling models to it. The cell's Threads/Cores are ignored: the sweep sets
// both, keeping the paper's cores = threads pairing at every point. Every
// point goes through the engine's fingerprint-keyed memo, so repeated advice
// for the same workload — or advice after a sweep that already simulated
// these cells — costs no new simulation.
func (e *Engine) Advise(ctx context.Context, req Request, maxThreads int) (scaling.Advice, error) {
	b, err := req.Cell.resolveWorkload()
	if err != nil {
		return scaling.Advice{}, err
	}
	// The sweep's run shape is maxThreads (cores = threads at every point),
	// which this range keeps valid.
	if maxThreads < MinAdviseThreads || maxThreads > cache.MaxCores {
		return scaling.Advice{}, refuse("max_threads must be in [%d,%d], got %d",
			MinAdviseThreads, cache.MaxCores, maxThreads)
	}
	req.Threads, req.Cores = maxThreads, 0
	cfg := e.base
	if req.Config != nil {
		cfg = *req.Config
	}
	// Fast mode's sampled sets break the advisor's classification (README,
	// "Fast mode: sampled simulation"), so the sweep needs the exact machine.
	if cfg.Mode == sim.ModeFast {
		return scaling.Advice{}, refuse("advise runs on the exact machine only: fast mode breaks the advisor's scaling classification")
	}
	threads := AdviseThreads(maxThreads)
	reqs := make([]Request, len(threads))
	for i, n := range threads {
		reqs[i] = req
		reqs[i].Threads = n
	}
	outs, err := e.Do(ctx, reqs)
	if err != nil {
		return scaling.Advice{}, err
	}
	points := make([]scaling.Point, len(outs))
	for i, o := range outs {
		points[i] = scaling.Point{Threads: o.Stack.N, Speedup: o.Stack.ActualSpeedup}
	}
	top := outs[len(outs)-1]
	a, err := scaling.Build(b.FullName(), b.Spec, points, top.Stack)
	if err != nil {
		return scaling.Advice{}, err
	}
	attachPredictedGains(a.Recommendations, b.Spec, cfg, top.Stack)
	return a, nil
}

// attachPredictedGains annotates component-keyed recommendations with the
// what-if catalog's view: for each recommendation, the applicable
// intervention scaling that component with the largest predicted gain. The
// gains are pure Formula (4) re-evaluations of the already-measured top
// stack — no extra simulation — and a client can validate any of them by
// asking the what-if engine for the full re-simulated report.
func attachPredictedGains(recs []scaling.Recommendation, spec workload.Spec, cfg sim.Config, st core.Stack) {
	for i := range recs {
		rec := &recs[i]
		bestID, bestGain := "", 0.0
		for _, iv := range whatif.Catalog() {
			if !iv.ScalesComponent(rec.Component) {
				continue
			}
			if _, ok := iv.Mutate(spec, cfg); !ok {
				continue
			}
			if g := whatif.PredictGain(st, iv); bestID == "" || g > bestGain {
				bestID, bestGain = iv.ID, g
			}
		}
		if bestID != "" {
			rec.Intervention, rec.PredictedGain = bestID, bestGain
		}
	}
}

// runAdvise prints the scaling advisor's one-line summary for every
// registered workload.
func runAdvise(ctx context.Context, e *Engine, p Params) (string, error) {
	names := workload.Names()
	var b strings.Builder
	fmt.Fprintf(&b, "scaling advisor, sweep 1..%d (powers of two), %d workloads\n\n",
		p.MaxThreads, len(names))
	fmt.Fprintf(&b, "%-26s %-10s %7s %9s %6s %6s %-10s %s\n",
		"benchmark", "class", "sigma", "kappa", "n*", "agree", "bottleneck", "top recommendation")
	for _, name := range names {
		a, err := e.Advise(ctx, Request{Cell: Cell{Bench: name}}, p.MaxThreads)
		if err != nil {
			return "", err
		}
		nstar, agree, bottleneck, top := "-", "yes", "-", "-"
		if a.NStar > 0 {
			nstar = fmt.Sprintf("%.1f", a.NStar)
		}
		if !a.SigmaAgrees {
			agree = "NO"
		}
		if a.Bottleneck != "" {
			bottleneck = a.Bottleneck
		}
		if len(a.Recommendations) > 0 {
			if top = a.Recommendations[0].Field; top == "" {
				top = a.Recommendations[0].Action
			}
		}
		fmt.Fprintf(&b, "%-26s %-10s %7.4f %9.6f %6s %6s %-10s %s\n",
			name, a.Class, a.USL.Sigma, a.USL.Kappa, nstar, agree, bottleneck, top)
	}
	return b.String(), nil
}
