package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

// metric reads one sample off a node's /metrics page; a page that fails
// the parser, or lacks the sample, fails the test.
func metric(t *testing.T, url, sample string) int {
	t.Helper()
	_, page := fetch(t, http.MethodGet, url+"/metrics", "")
	values, _, err := fleet.ParseMetrics(page)
	if err != nil {
		t.Fatalf("%s/metrics: %v\n%s", url, err, page)
	}
	v, ok := values[sample]
	if !ok {
		t.Fatalf("%s/metrics has no %s", url, sample)
	}
	return int(v)
}

// homeAndAway returns the indices of bench's home node and of another node
// in a fleet.
func homeAndAway(t *testing.T, urls []string, h *fleet.Handler, bench string) (home, away int) {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	owner := h.Ring().Owner(b.Spec.Fingerprint().String())
	home, away = -1, -1
	for i, u := range urls {
		if u == owner {
			home = i
		} else {
			away = i
		}
	}
	if home < 0 || away < 0 {
		t.Fatalf("home %q not among %v", owner, urls)
	}
	return home, away
}

// forwardSignal is a peer transport that reports each forwarded request as
// it starts and, when failed is set, each one that ends in an error.
type forwardSignal struct {
	started chan struct{}
	failed  chan error
}

func (f forwardSignal) RoundTrip(r *http.Request) (*http.Response, error) {
	f.started <- struct{}{}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil && f.failed != nil {
		f.failed <- err
	}
	return resp, err
}

// TestFleetCanceledFetchDoesNotFailItsWaiters pins the cancellation contract
// of coalesced peer fetches. The request that claimed a forward hangs up
// while the home is still simulating; the request waiting behind it must
// fetch from the home itself and answer the home's bytes — not inherit the
// cancellation, count a peer error and simulate a second copy locally, and
// neither may the canceled request.
func TestFleetCanceledFetchDoesNotFailItsWaiters(t *testing.T) {
	const bench = "blackscholes_parsec_small"
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	forwards := forwardSignal{started: make(chan struct{}, 8)} // room for every forward the test can cause
	urls, _, handlers := newFleetWith(t, 2, func(i int, o *fleet.Options, _ *service.Options) []exp.Option {
		o.Client = &http.Client{Transport: forwards}
		// Every simulation in the fleet waits for the test's go-ahead.
		return []exp.Option{exp.WithRunHook(func(string, string, int, int) { <-hold })}
	})
	t.Cleanup(release) // before the servers close: they wait for their requests
	home, away := homeAndAway(t, urls, handlers[0], bench)
	path := "/v1/stack?bench=" + bench + "&threads=2"

	ctx, hangUp := context.WithCancel(context.Background())
	claimant := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, urls[away]+path, nil)
		if err != nil {
			claimant <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		claimant <- err
	}()
	<-forwards.started // the claimant's fetch is on its way to the held home

	// The waiter's request is on the wire before the claimant hangs up, so
	// it has all but certainly joined the claimant's fetch by the time the
	// cancellation has crossed two connections to end it; arriving later, it
	// would find no fetch and start one, which must end the same way.
	type reply struct {
		code int
		body string
	}
	sent := make(chan struct{})
	waiter := make(chan reply, 1)
	go func() {
		trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { close(sent) }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodGet, urls[away]+path, nil)
		if err != nil {
			waiter <- reply{0, err.Error()}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			waiter <- reply{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			waiter <- reply{0, err.Error()}
			return
		}
		waiter <- reply{resp.StatusCode, string(body)}
	}()
	select {
	case <-sent:
	case r := <-waiter:
		t.Fatalf("waiter failed before its request was sent: %s", r.body)
	}

	hangUp()
	if err := <-claimant; !errors.Is(err, context.Canceled) {
		t.Fatalf("claimant: %v, want its own cancellation", err)
	}
	select {
	case <-forwards.started: // the waiter fetches for itself
	case <-time.After(30 * time.Second):
		t.Error("the waiter did not fetch from the home after the claimant hung up")
	}
	release()

	got := <-waiter
	wantCode, want := fetch(t, http.MethodGet, urls[home]+path, "")
	if got.code != http.StatusOK || wantCode != http.StatusOK || got.body != want {
		t.Fatalf("waiter got %d %q, home answers %d %q", got.code, got.body, wantCode, want)
	}
	if n := metric(t, urls[away], "speedupd_fleet_peer_errors_total"); n != 0 {
		t.Errorf("%d peer errors counted for a client that hung up", n)
	}
	runs := 0
	for _, u := range urls {
		runs += metric(t, u, "speedupd_sim_cell_runs_total")
	}
	if runs != 1 {
		t.Errorf("fleet simulated the cell %d times, want exactly once", runs)
	}
}

// TestFleetHangUpMidSplitSweep is the same contract on the split-sweep path:
// a client that hangs up while its batch's cells are being filled from their
// homes is nobody's failure. The node counts no peer error and starts no
// local copy of a cell another node owns, so after a patient retry the fleet
// has simulated each unique cell exactly once.
func TestFleetHangUpMidSplitSweep(t *testing.T) {
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	forwards := forwardSignal{started: make(chan struct{}, 8), failed: make(chan error, 8)}
	urls, _, handlers := newFleetWith(t, 2, func(i int, o *fleet.Options, _ *service.Options) []exp.Option {
		o.Client = &http.Client{Transport: forwards}
		return []exp.Option{exp.WithRunHook(func(string, string, int, int) { <-hold })}
	})
	t.Cleanup(release)
	benchA, benchB := splitBenches(t, handlers[0])
	body := fmt.Sprintf(`{"cells":[{"bench":%q,"threads":2},{"bench":%q,"threads":2}]}`, benchA, benchB)

	ctx, hangUp := context.WithCancel(context.Background())
	client := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, urls[0]+"/v1/sweep", strings.NewReader(body))
		if err != nil {
			client <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		client <- err
	}()
	<-forwards.started // one cell is on its way to its held home
	hangUp()
	if err := <-client; !errors.Is(err, context.Canceled) {
		t.Fatalf("client: %v, want its own cancellation", err)
	}
	select {
	case <-forwards.failed: // the node has seen the hang-up end its forward
	case <-time.After(30 * time.Second):
		t.Fatal("the forward outlived the client that asked for it")
	}
	release()

	if code, resp := fetch(t, http.MethodPost, urls[0]+"/v1/sweep", body); code != http.StatusOK {
		t.Fatalf("patient retry: %d %s", code, resp)
	}
	runs := 0
	for _, u := range urls {
		if n := metric(t, u, "speedupd_fleet_peer_errors_total"); n != 0 {
			t.Errorf("%s: %d peer errors counted for a client that hung up", u, n)
		}
		runs += metric(t, u, "speedupd_sim_cell_runs_total")
	}
	if runs != 2 {
		t.Errorf("fleet simulated %d cells for 2 unique cells, want exactly once each", runs)
	}
}

// TestFleetPeerCacheLRU pins the peer-response cache's retention on a node
// with room for two responses: a lookup and a fill both make an entry the
// most recent, the least recent is evicted, and an error reply from the home
// is passed on but never retained. Read off the away node's own counters.
func TestFleetPeerCacheLRU(t *testing.T) {
	const bench = "blackscholes_parsec_small"
	urls, _, handlers := newFleetWith(t, 2, func(i int, o *fleet.Options, _ *service.Options) []exp.Option {
		o.CacheEntries = 2
		return nil
	})
	_, away := homeAndAway(t, urls, handlers[0], bench)
	q := func(threads int) string { return fmt.Sprintf("/v1/stack?bench=%s&threads=%d", bench, threads) }
	forwarded := 0
	for i, step := range []struct {
		path string
		code int
		hit  bool
	}{
		{q(1), 200, false},
		{q(2), 200, false},
		{q(1), 200, true},  // q1 becomes the most recent
		{q(3), 200, false}, // evicts q2
		{q(1), 200, true},
		{q(2), 200, false}, // evicts q3
		{q(0), 400, false}, // the home's 400 is passed on ...
		{q(0), 400, false}, // ... and fetched again: not retained, nothing evicted
		{q(1), 200, true},
		{q(2), 200, true},
		{q(3), 200, false},
	} {
		hits := metric(t, urls[away], "speedupd_fleet_peer_cache_hits_total")
		if code, body := fetch(t, http.MethodGet, urls[away]+step.path, ""); code != step.code {
			t.Fatalf("step %d %s: %d %s", i, step.path, code, body)
		}
		if !step.hit {
			forwarded++
		}
		gotHit := metric(t, urls[away], "speedupd_fleet_peer_cache_hits_total") - hits
		if gotFwd := metric(t, urls[away], "speedupd_fleet_forwarded_total"); (gotHit == 1) != step.hit || gotFwd != forwarded {
			t.Fatalf("step %d %s: hit=%v, %d forwarded in all; want hit=%v, %d forwarded",
				i, step.path, gotHit == 1, gotFwd, step.hit, forwarded)
		}
	}
	// q3, q2 and q1 were each evicted once; q2 and q3 are held.
	if n, ev := metric(t, urls[away], "speedupd_fleet_peer_cache_entries"),
		metric(t, urls[away], "speedupd_fleet_peer_cache_evictions_total"); n != 2 || ev != 3 {
		t.Errorf("the peer cache holds %d entries after %d evictions, want 2 after 3", n, ev)
	}
}

// TestFleetConcurrentFormatsShareOneReport: once a node holds a cell's
// report, concurrent requests for it in every format are all peer-cache
// hits, each answering the home's bytes in its own format, and the report
// is one entry. Under -race it holds the shared bars to read-only use.
func TestFleetConcurrentFormatsShareOneReport(t *testing.T) {
	const bench = "blackscholes_parsec_small"
	urls, _, handlers := newFleet(t, 2)
	home, away := homeAndAway(t, urls, handlers[0], bench)
	path := "/v1/stack?bench=" + bench + "&threads=2&format="
	if code, body := fetch(t, http.MethodGet, urls[away]+path+"json", ""); code != http.StatusOK {
		t.Fatalf("first ask: %d %s", code, body)
	}
	formats := []string{"json", "csv", "svg", "text", "ndjson"}
	want := map[string]string{}
	for _, f := range formats {
		_, want[f] = fetch(t, http.MethodGet, urls[home]+path+f, "")
	}
	const perFormat = 4
	var wg sync.WaitGroup
	for _, f := range formats {
		for range perFormat {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(urls[away] + path + f)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				got, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK || string(got) != want[f] {
					t.Errorf("%s: %d %q (%v), the home answers %q", f, resp.StatusCode, got, err, want[f])
				}
			}()
		}
	}
	wg.Wait()
	if fwd, hits := metric(t, urls[away], "speedupd_fleet_forwarded_total"),
		metric(t, urls[away], "speedupd_fleet_peer_cache_hits_total"); fwd != 1 || hits != len(formats)*perFormat {
		t.Errorf("%d forwards and %d hits, want 1 and %d", fwd, hits, len(formats)*perFormat)
	}
	if n := metric(t, urls[away], "speedupd_fleet_peer_cache_entries"); n != 1 {
		t.Errorf("the peer cache holds %d entries for one cell in five formats, want 1", n)
	}
}
