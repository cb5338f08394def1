package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFleetOversizedPeerReplyFallsBack homes benchmarks on a member that
// answers every request with a 200 one byte over service.MaxReplyBytes. The
// node must treat that like any other peer failure — count it, serve the
// request from a local simulation, retain nothing in the peer cache — for a single-home
// request (routeHome) and for the foreign group of a split sweep
// (subRequest). It is an internal test so it can read the cache's occupancy.
func TestFleetOversizedPeerReplyFallsBack(t *testing.T) {
	bloated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		chunk := make([]byte, 1<<20)
		for sent := 0; sent <= service.MaxReplyBytes; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(bloated.Close)

	var node http.Handler
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { node.ServeHTTP(w, r) }))
	t.Cleanup(srv.Close)
	fh, err := Wrap(service.New(service.Options{Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2))}).Handler(),
		Options{Self: srv.URL, Peers: []string{srv.URL, bloated.URL}})
	if err != nil {
		t.Fatal(err)
	}
	node = fh
	// The reference: the same service with no fleet around it.
	single := httptest.NewServer(service.New(service.Options{Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2))}).Handler())
	t.Cleanup(single.Close)

	var away, home string // a benchmark homed on the bloated member, one homed here
	for _, b := range workload.All() {
		if fh.Ring().Owner(b.Spec.Fingerprint().String()) == bloated.URL {
			if away == "" {
				away = b.FullName()
			}
		} else if home == "" {
			home = b.FullName()
		}
	}
	if away == "" || home == "" {
		t.Skip("every benchmark homed on one member")
	}

	get := func(base, method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s%s: %d %s", method, base, path, resp.StatusCode, data)
		}
		return string(data)
	}
	check := func(method, path, body string, wantErrors uint64) {
		t.Helper()
		if got, want := get(srv.URL, method, path, body), get(single.URL, method, path, body); got != want {
			t.Errorf("%s %s: the node relayed %d bytes that differ from the single-node answer (%d bytes)",
				method, path, len(got), len(want))
		}
		if n := fh.peerErrors.Load(); n != wantErrors {
			t.Errorf("%s %s: %d peer errors counted, want %d", method, path, n, wantErrors)
		}
		if n := fh.cache.Occupancy().Entries; n != 0 {
			t.Errorf("%s %s: the peer cache retains %d replies, want 0", method, path, n)
		}
	}
	check(http.MethodGet, "/v1/stack?bench="+away+"&threads=2", "", 1)
	if values, _, err := parseMetrics(get(srv.URL, http.MethodGet, "/metrics", "")); err != nil || values["speedupd_fleet_peer_errors_total"] != 1 {
		t.Errorf("/metrics: %v, speedupd_fleet_peer_errors_total %v, want 1", err, values["speedupd_fleet_peer_errors_total"])
	}
	sweep := fmt.Sprintf(`{"cells":[{"bench":%q,"threads":2},{"bench":%q,"threads":2}]}`, home, away)
	check(http.MethodPost, "/v1/sweep?format=ndjson", sweep, 2)
}
