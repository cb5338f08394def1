package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The calibrated clock. Neighbours on the shared host take the CPU away for
// a millisecond at a time, and slow the same code by a factor that wanders
// and holds for minutes, so no statistic over a run finds a quiet moment.
// Timed stretches are therefore read off the process's CPU clock, which
// stands still while the hypervisor or another process has the CPU (with
// one P and every server in-process, a stretch waits for nothing else), and
// about every 20 ms the benchmark times a fixed reference kernel: every
// stretch is divided by the slowdown the kernel saw around it, the median
// over the nearest eight kernel timings. A kernel timing that falls inside
// a stretch (the engine's run hook takes them between simulations) splits
// the stretch; the kernel's own time is left out.

// stamp is one reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration // CPU time the process has used, all threads
}

func now() stamp {
	var ts syscall.Timespec
	// CLOCK_PROCESS_CPUTIME_ID; with a valid clock and pointer it cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return stamp{time.Now(), time.Duration(ts.Nano())}
}

const (
	tickEvery = 20 * time.Millisecond
	nearTicks = 8
	// The kernel's two parts and their quiet times: each part's fastest
	// decile on this host class when timed alone. The quiet times only fix
	// the scale of calibrated seconds; ratios between commits do not depend
	// on them.
	kernelExchanges = 10
	exchangesQuiet  = 400 * time.Microsecond
	kernelPipeTrips = 200
	pipeTripsQuiet  = 135 * time.Microsecond
)

type tick struct {
	start, end      stamp   // of the kernel
	exchanges, pipe float64 // each part's time over its quiet time
}

// clock owns the kernel's plumbing: a standard-library HTTP server with a
// fixed reply on a loopback listener, a client with one keep-alive
// connection to it, and a pipe. None of it is the program under test.
type clock struct {
	ticks  []tick
	mix    float64 // the pipe part's weight in the slowdown; the exchanges have the rest
	paused bool    // tick does nothing: the stretch around it is not timed
	err    error   // the first failure of the plumbing
	srv    *http.Server
	served chan error
	client *http.Client
	url    string
	pipe   [2]int
	body   bytes.Buffer
	msg    [64]byte
}

func newClock() (*clock, error) {
	var pipe [2]int
	if err := syscall.Pipe(pipe[:]); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		syscall.Close(pipe[0])
		syscall.Close(pipe[1])
		return nil, err
	}
	reply := bytes.Repeat([]byte("speedup stacks identify scaling bottlenecks\n"), 24)
	c := &clock{ticks: make([]tick, 0, 4096), pipe: pipe, served: make(chan error, 1), url: "http://" + l.Addr().String() + "/v1/reference?bench=kernel&threads=16",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = r.URL.Query().Get("bench") // parses the query, as a handler of the program would
			w.Header().Set("Content-Type", "text/plain")
			w.Write(reply)
		})}}
	go func() { c.served <- c.srv.Serve(l) }()
	c.kernel() // dials the connection
	if c.err != nil {
		c.close()
		return nil, c.err
	}
	return c, nil
}

// close shuts the kernel's server down and returns once its serving
// goroutine has.
func (c *clock) close() {
	c.client.CloseIdleConnections()
	c.srv.Close()
	<-c.served
	syscall.Close(c.pipe[0])
	syscall.Close(c.pipe[1])
}

// kernel is the reference work, the two kinds that slow the way the
// workloads do on this host (README, "The reference kernel"): ten HTTP
// exchanges with the clock's own server — net/http, the scheduler, the
// allocator and the loopback stack, as every service request uses them —
// then 200 round trips of 64 bytes through a pipe. Each part's time on the
// CPU clock over its quiet time is a slowdown; slow mixes the two.
func (c *clock) kernel() tick {
	t0 := now()
	for i := 0; i < kernelExchanges; i++ {
		resp, err := c.client.Get(c.url)
		if err == nil {
			c.body.Reset()
			_, err = c.body.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("reference kernel: %w", err)
		}
	}
	t1 := now()
	for i := 0; i < kernelPipeTrips; i++ {
		_, werr := syscall.Write(c.pipe[1], c.msg[:])
		_, rerr := syscall.Read(c.pipe[0], c.msg[:])
		if (werr != nil || rerr != nil) && c.err == nil {
			c.err = fmt.Errorf("reference kernel: pipe: %w", errors.Join(werr, rerr))
		}
	}
	t2 := now()
	return tick{t0, t2, float64(t1.cpu-t0.cpu) / float64(exchangesQuiet), float64(t2.cpu-t1.cpu) / float64(pipeTripsQuiet)}
}

// slow is the slowdown kernel timing k saw, as the workload weighs the parts.
func (c *clock) slow(k tick) float64 { return (1-c.mix)*k.exchanges + c.mix*k.pipe }

// tick times the kernel if the last timing is older than tickEvery. It is
// called only between timed stretches.
func (c *clock) tick() {
	if n := len(c.ticks); c.paused || n > 0 && time.Since(c.ticks[n-1].start.wall) < tickEvery {
		return
	}
	c.force()
}

func (c *clock) force() { c.ticks = append(c.ticks, c.kernel()) }

// slowdown is the host's slowdown around CPU time t: the median over the
// nearest nearTicks kernel timings (1 with no timings yet).
func (c *clock) slowdown(t time.Duration) float64 {
	n := len(c.ticks)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return c.ticks[i].start.cpu >= t })
	lo, hi := i-nearTicks/2, i+nearTicks/2
	if lo < 0 {
		lo, hi = 0, min(nearTicks, n)
	}
	if hi > n {
		lo, hi = max(0, n-nearTicks), n
	}
	var slows [nearTicks]float64
	for j, k := range c.ticks[lo:hi] {
		slows[j] = c.slow(k)
	}
	return median(slows[:hi-lo])
}

// scaled returns the stretch from t0 to t1 in calibrated seconds.
func (c *clock) scaled(t0, t1 stamp) float64 {
	seg := func(a, b time.Duration) float64 {
		if b <= a {
			return 0
		}
		return (b - a).Seconds() / c.slowdown(a+(b-a)/2)
	}
	total, cur := 0.0, t0.cpu
	first := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].start.cpu > t0.cpu })
	for _, k := range c.ticks[first:] {
		if k.start.cpu >= t1.cpu {
			break
		}
		total += seg(cur, k.start.cpu)
		cur = k.end.cpu
	}
	return total + seg(cur, t1.cpu)
}

// slowdownP50 is the run's median slowdown.
func (c *clock) slowdownP50() float64 {
	slows := make([]float64, len(c.ticks))
	for i, k := range c.ticks {
		slows[i] = c.slow(k)
	}
	return median(slows)
}

// quantile returns the q-quantile of v by linear interpolation (0 for no
// samples); v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
