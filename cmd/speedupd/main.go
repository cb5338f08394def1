// Command speedupd serves the speedup-stack analysis pipeline over HTTP:
// a long-running, cached, bounded-concurrency front end to the simulator.
//
// Usage:
//
//	speedupd [-addr :8080] [-workers N] [-cache CELLS] [-sim-timeout D]
//	         [-drain 10s] [-pprof]
//	         [-max-inflight N] [-rate-limit RPS]
//	         [-self URL -peers URL,URL,...] [-fleet-cache N]
//
// Endpoints (see internal/service):
//
//	GET  /v1/stack?bench=cholesky_splash2&threads=16&format=svg
//	GET  /v1/stack/intervals?bench=bodytrack&threads=16&intervals=32
//	POST /v1/sweep                 (up to 1024 cells per batch)
//	POST /v1/workloads/analyze
//	POST /v1/workloads/validate
//	POST /v1/traces/analyze        (binary op trace from speedup-stack -record)
//	GET  /v1/advise?bench=ferret&max_threads=16
//	POST /v1/whatif
//	GET  /v1/benchmarks
//	GET  /healthz
//	GET  /metrics
//
// Identical concurrent requests collapse onto one simulation, results are
// cached in an LRU keyed by the full machine configuration, and SIGINT or
// SIGTERM drains in-flight requests before exiting. Every /v1 endpoint
// accepts exactly its documented query parameters and answers failures
// with one structured envelope ({"error":{"code","message","suggestion"}});
// the Go package repro/client wraps the whole surface.
//
// Overload protection: -max-inflight bounds concurrently admitted
// simulating requests (excess load is shed with 429 "overloaded" and
// Retry-After) and -rate-limit adds a per-client token bucket holding
// max(1, ceil(RPS)) tokens (429 "rate_limited").
//
// Fleet mode: -self and -peers (every node runs the same -peers list, its
// own address in it as -self) shard the cache across cooperating nodes —
// a consistent-hash ring on the workload fingerprint assigns each
// workload a home node, non-home nodes fill from the home over the /v1
// surface with at most one hop, and the fleet-wide cost of a unique cell
// is one simulation. Responses are byte-identical to a single node's
// (see internal/fleet); /metrics appends the fleet's families to the
// service's metric table (README, "Metrics").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", exp.DefaultWorkers(), "max concurrent simulations")
	cache := flag.Int("cache", 4096, "LRU result cache size in cells (<= 0 = unbounded)")
	simTimeout := flag.Duration("sim-timeout", 0, "per-request simulation budget (0 = default 2m, -1s = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profile a slow sweep live)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted simulating requests (0 = unbounded; excess sheds 429)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate on simulating endpoints, in req/s (0 = off)")
	self := flag.String("self", "", "fleet: this node's address as it appears in -peers")
	peers := flag.String("peers", "", "fleet: comma-separated member addresses, -self included, identical on every node")
	fleetCache := flag.Int("fleet-cache", 4096, "fleet: peer cache entries, one stack report or one other reply each (0 = unbounded, < 0 = off)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	srv := service.New(service.Options{
		Engine:      exp.NewEngine(sim.Default(), exp.WithWorkers(*workers), exp.WithCellMemoLimit(*cache)),
		SimTimeout:  *simTimeout,
		MaxInFlight: *maxInflight,
		RateLimit:   *rateLimit,
	})

	handler := srv.Handler()
	if (*self == "") != (*peers == "") {
		log.Fatal("speedupd: -self and -peers must be set together")
	}
	if *peers != "" {
		members := strings.Split(*peers, ",")
		fh, err := fleet.Wrap(handler, fleet.Options{
			Self:         *self,
			Peers:        members,
			CacheEntries: *fleetCache,
		})
		if err != nil {
			log.Fatalf("speedupd: %v", err)
		}
		handler = fh
		log.Printf("speedupd: fleet member %s of %d nodes", *self, len(members))
	}
	if *pprofOn {
		// Admin mux: the service routes plus the standard pprof endpoints,
		// so a slow sweep can be profiled in production with
		// `go tool pprof http://HOST/debug/pprof/profile`.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("speedupd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("speedupd: listening on %s (%d workers, cell cache bound %d (0 = unbounded), pprof %v)",
		l.Addr(), *workers, srv.Engine().Stats().CellMemoLimit, *pprofOn)
	if err := service.Serve(ctx, l, handler, *drain); err != nil {
		log.Fatalf("speedupd: %v", err)
	}
	st := srv.Engine().Stats()
	log.Printf("speedupd: shut down cleanly (%d simulations, %d cache hits)",
		st.CellRuns+st.SeqRuns, st.CellHits+st.SeqHits)
}
