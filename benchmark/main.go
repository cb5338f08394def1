// Command benchmark is the repo's benchmark: four closed-loop workloads over
// the library, the service and the fleet, each run one process measuring one
// core's worth of the system on a calibrated clock. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

func main() {
	var (
		workload = flag.String("workload", "", "eval_all, analyze_cold, memo_hit or peer_hop")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", runSeconds, "how long to measure")
		trace    = flag.Int("trace", 0, "1: record spans, run the layer probes, print the per-layer metrics")
		out      = flag.String("out", "benchmark/out", "directory for span files")
		pin      = flag.Bool("pin", false, "print the workload's reply digests as an expected.json entry instead of a result")
		fault    = flag.Bool("fault", false, "corrupt one output check (proves a wrong output fails the run)")
		compare  = flag.Bool("compare", false, "compare two files of result lines: benchmark -compare a.json b.json")
		manif    = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	switch {
	case *manif:
		exitOn(manifest(os.Stdout))
		return
	case *compare:
		if flag.NArg() != 2 {
			exitOn(errors.New("usage: benchmark -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if worse {
			os.Exit(1)
		}
		return
	}

	// One process measures one core's worth of the system: with both of
	// this host's cores in use, the hypervisor is what gets timed.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, pins, err := run(ctx, options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: full, out: *out, pin: *pin, fault: *fault})
	exitOn(err)
	if *pin {
		data, _ := json.MarshalIndent(map[string]map[string]string{*workload: pins}, "", " ")
		fmt.Println(string(data))
		return
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	out      string
	pin      bool
	fault    bool
}

// run sets a workload up, measures it and returns the result line's
// content. Every server it boots is shut down, and its serving goroutine
// waited for, before run returns — on success, error and cancellation alike.
func run(ctx context.Context, o options) (result, map[string]string, error) {
	setup, ok := setups[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		return result{}, nil, fmt.Errorf("expected.json: %w", err)
	}
	clk, err := newClock()
	if err != nil {
		return result{}, nil, err
	}
	defer clk.close()
	clk.mix = pipeMix[o.workload]
	e := &env{ctx: ctx, seed: o.seed, sz: o.sz, clk: clk, rec: newRecorder(), expected: pinned[o.workload],
		hookTicks: !o.trace}
	if o.pin {
		e.pin = map[string]string{}
	}
	// Set-up runs three times (once when tracing, which does not report
	// it) and setup_s is the median: one set-up is a single sample of 0.2-2 s
	// and spreads 27% run to run on analyze_cold. The last one is measured.
	setupRuns := 3
	if o.trace {
		setupRuns = 1
	}
	var st *state
	stretches := make([][2]stamp, setupRuns)
	for i := range stretches {
		if st != nil {
			st.close()
		}
		clk.force()
		clk.force()
		stretches[i][0] = now()
		if st, err = setup(e); err != nil {
			return result{}, nil, err
		}
		stretches[i][1] = now()
	}
	defer func() { st.close() }()
	e.fault = o.fault // strikes the first measured operation, not the warm-up
	clk.force()
	clk.force()
	setupTimes := make([]float64, setupRuns)
	for i, s := range stretches {
		setupTimes[i] = clk.scaled(s[0], s[1])
	}
	measured := map[string]float64{"setup_s": median(setupTimes)}

	table := endToEnd
	var loop *loopResult
	if !o.trace {
		if loop, err = measure(e, st, time.Now().Add(time.Duration(o.seconds*float64(time.Second))), true); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d repetitions, raw wall_s %.6g, of which on the CPU %.3f, host slowdown %.3f\n",
			o.workload, o.seed, len(loop.reps), median(loop.raw), loop.cpuShare, clk.slowdownP50())
		loop.endToEnd(e, st, measured)
	} else {
		// Half the run measures, a quarter untraced and a quarter traced,
		// so the tracing overhead is the difference inside one process;
		// the probes take the rest.
		table = perLayer
		quarter := time.Duration(o.seconds / 4 * float64(time.Second))
		plain, err := measure(e, st, time.Now().Add(quarter), false)
		if err != nil {
			return result{}, nil, err
		}
		e.rec.setOn(true)
		if loop, err = measure(e, st, time.Now().Add(quarter), false); err != nil {
			return result{}, nil, err
		}
		e.rec.setOn(false)
		loop.perLayer(e, plain, measured)
		if err := writeSpans(filepath.Join(o.out, o.workload+"-spans.json"), loop.lastSpans(e)); err != nil {
			return result{}, nil, err
		}
		if err := probes(ctx, o.sz, measured); err != nil {
			return result{}, nil, err
		}
	}
	if clk.err != nil {
		return result{}, nil, clk.err
	}
	metrics, err := pick(table, measured)
	if err != nil {
		return result{}, nil, err
	}
	return result{Correct: loop.failed == 0, Attempted: loop.attempted, Failed: loop.failed, Metrics: metrics}, e.pin, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
