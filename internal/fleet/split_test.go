package fleet_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// homedBenches returns, for each node of a fleet, the first registered
// benchmark the ring homes there.
func homedBenches(t *testing.T, urls []string, ring *fleet.Ring) []string {
	t.Helper()
	benches := make([]string, len(urls))
	left := len(urls)
	for _, b := range workload.All() {
		i := slices.Index(urls, ring.Owner(b.Spec.Fingerprint().String()))
		if i >= 0 && benches[i] == "" {
			benches[i] = b.FullName()
			if left--; left == 0 {
				return benches
			}
		}
	}
	t.Skip("a node homes no registered benchmark")
	return nil
}

// subRequests is the number of sub-requests a node has issued: the ones it
// served itself and the ones it forwarded.
func subRequests(t *testing.T, url string) int {
	t.Helper()
	return metric(t, url, "speedupd_fleet_local_total") + metric(t, url, "speedupd_fleet_forwarded_total")
}

// TestFleetSplitOneSubRequestPerHome pins the cost of a mixed-home sweep: n
// cells over h homes make h sub-requests, one sub-sweep per home, whichever
// node takes the batch.
func TestFleetSplitOneSubRequestPerHome(t *testing.T) {
	urls, _, handlers := newFleet(t, 3)
	b := homedBenches(t, urls, handlers[0].Ring())
	// Five distinct cells over three homes.
	body := fmt.Sprintf(`{"cells":[{"bench":%[1]q,"threads":2},{"bench":%[2]q,"threads":2},`+
		`{"bench":%[3]q,"threads":2},{"bench":%[1]q,"threads":3},{"bench":%[2]q,"threads":3}]}`, b[0], b[1], b[2])
	for i, u := range urls {
		before := subRequests(t, u)
		code, resp := fetch(t, http.MethodPost, u+"/v1/sweep?format=ndjson", body)
		if code != http.StatusOK || strings.Count(resp, "\n") != 5 {
			t.Fatalf("node %d: %d %s", i, code, resp)
		}
		if n := subRequests(t, u) - before; n != 3 {
			t.Errorf("node %d: %d sub-requests for 5 cells over 3 homes, want one per home", i, n)
		}
	}
}

// TestFleetRefusedSplitSweepMatchesSingleNode: a mixed-home batch with a
// cell of an invalid run shape is refused whole, as a single node refuses
// it — the same bytes from every node, naming the client's cell index, and
// nothing simulated anywhere, not even the valid cell.
func TestFleetRefusedSplitSweepMatchesSingleNode(t *testing.T) {
	urls, engines, handlers := newFleet(t, 3)
	singleEngine := exp.NewEngine(sim.Default(), exp.WithWorkers(2))
	single := httptest.NewServer(service.New(service.Options{Engine: singleEngine}).Handler())
	t.Cleanup(single.Close)
	benchA, benchB := splitBenches(t, handlers[0])
	for _, bad := range []string{`"threads":0`, `"threads":2,"cores":99`} {
		body := fmt.Sprintf(`{"cells":[{"bench":%q,"threads":2},{"bench":%q,%s}]}`, benchA, benchB, bad)
		for _, query := range []string{"", "?format=ndjson"} {
			wantCode, want := fetch(t, http.MethodPost, single.URL+"/v1/sweep"+query, body)
			if wantCode != http.StatusBadRequest || !strings.Contains(want, "cell 1: ") {
				t.Fatalf("single node, %s%s: %d %s", bad, query, wantCode, want)
			}
			for i, u := range urls {
				if code, got := fetch(t, http.MethodPost, u+"/v1/sweep"+query, body); code != wantCode || got != want {
					t.Errorf("node %d, %s%s: %d %q, single node answers %d %q", i, bad, query, code, got, wantCode, want)
				}
			}
		}
	}
	for i, e := range append(engines, singleEngine) {
		if n := e.Stats().CellRuns; n != 0 {
			t.Errorf("engine %d simulated %d cells of refused batches", i, n)
		}
	}
}

// TestFleetSplitShortGroupReply: a group with a warm cell and a cold one
// that times out has only part of its report, and its home, answering the
// group's exact rows as one call, answers the timeout instead of a short
// report. The node that took the batch must then serve the whole batch
// itself: the bytes its own service gives, with the error naming the
// client's cell index, not the cell's position in its group. The failed
// reply is not kept: asking again forwards again.
func TestFleetSplitShortGroupReply(t *testing.T) {
	hold := make(chan struct{})
	urls, engines, handlers := newFleetWith(t, 2, func(i int, _ *fleet.Options, so *service.Options) []exp.Option {
		so.SimTimeout = time.Nanosecond
		// Every 3-thread cell stays cold for the whole test.
		return []exp.Option{exp.WithRunHook(func(kind, _ string, threads, _ int) {
			if kind == "cell" && threads == 3 {
				<-hold
			}
		})}
	})
	t.Cleanup(func() { close(hold) })
	b := homedBenches(t, urls, handlers[0].Ring())
	mine, theirs := b[0], b[1] // homed on node 0, which takes the batch, and on node 1
	for _, warm := range []struct {
		e     *exp.Engine
		cells []exp.Cell
	}{
		{engines[0], []exp.Cell{{Bench: mine, Threads: 2}, {Bench: theirs, Threads: 2}}},
		{engines[1], []exp.Cell{{Bench: theirs, Threads: 2}}},
	} {
		if _, err := warm.e.Sweep(context.Background(), warm.cells); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1's group is cells 1 and 2: cell 1 is warm, cell 2 times out.
	body := fmt.Sprintf(`{"cells":[{"bench":%q,"threads":2},{"bench":%[2]q,"threads":2},{"bench":%[2]q,"threads":3}]}`, mine, theirs)
	local := func(path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, urls[0]+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(service.HopHeader, "test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	for _, path := range []string{"/v1/sweep?format=ndjson", "/v1/sweep"} {
		fwd := metric(t, urls[0], "speedupd_fleet_forwarded_total")
		code, got := fetch(t, http.MethodPost, urls[0]+path, body)
		if n := metric(t, urls[0], "speedupd_fleet_forwarded_total") - fwd; n != 1 {
			t.Errorf("%s: %d forwards, want node 1's group fetched once more", path, n)
		}
		wantCode, want := local(path)
		if code != wantCode || got != want {
			t.Errorf("%s: %d %q, node 0's own service answers %d %q", path, code, got, wantCode, want)
		}
		if !strings.Contains(got, "sim_timeout") {
			t.Errorf("%s: %q holds no timeout: the group did not fail", path, got)
		}
		if strings.Contains(got, "cell ") && !strings.Contains(got, "cell 2: ") {
			t.Errorf("%s: %q names a cell other than the client's cell 2", path, got)
		}
	}
}

// TestFleetSplitTimedOutGroupServedLocally: a group whose home answers it
// with an error — here a 504, its cold cell outliving the home's SimTimeout
// — cannot be merged, and relaying it would name the cell's index in its
// group. The node that took the batch serves it whole instead: the same 200
// bytes a single node gives.
func TestFleetSplitTimedOutGroupServedLocally(t *testing.T) {
	urls, _, handlers := newFleetWith(t, 2, func(i int, _ *fleet.Options, so *service.Options) []exp.Option {
		if i == 1 {
			so.SimTimeout = time.Nanosecond
		}
		return nil
	})
	single := httptest.NewServer(service.New(service.Options{Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2))}).Handler())
	t.Cleanup(single.Close)
	b := homedBenches(t, urls, handlers[0].Ring())
	mine, theirs := b[0], b[1] // homed on node 0, which takes the batch, and on node 1
	// Each format asks for a thread count node 1 has not simulated yet.
	for threads, query := range []string{"", "?format=ndjson"} {
		body := fmt.Sprintf(`{"cells":[{"bench":%[1]q,"threads":%[3]d},{"bench":%[2]q,"threads":%[3]d}]}`, mine, theirs, threads+2)
		fwd := metric(t, urls[0], "speedupd_fleet_forwarded_total")
		code, got := fetch(t, http.MethodPost, urls[0]+"/v1/sweep"+query, body)
		if n := metric(t, urls[0], "speedupd_fleet_forwarded_total") - fwd; n != 1 {
			t.Errorf("%q: %d forwards, want node 1's group fetched once", query, n)
		}
		wantCode, want := fetch(t, http.MethodPost, single.URL+"/v1/sweep"+query, body)
		if wantCode != http.StatusOK || code != wantCode || got != want {
			t.Errorf("%q: %d %q, a single node answers %d %q", query, code, got, wantCode, want)
		}
	}
}

// TestFleetSplitDocumentFormatsExactlyOnce: a mixed-home sweep asked for
// as csv, svg or text splits like a json one. Each cell is simulated once
// in the whole fleet, on its own home, whichever node takes the batch.
func TestFleetSplitDocumentFormatsExactlyOnce(t *testing.T) {
	urls, engines, handlers := newFleet(t, 3)
	b := homedBenches(t, urls, handlers[0].Ring())
	for i, format := range []string{"csv", "svg", "text"} {
		// Each format asks for a thread count nobody has simulated yet.
		body := fmt.Sprintf(`{"cells":[{"bench":%[1]q,"threads":%[4]d},{"bench":%[2]q,"threads":%[4]d},{"bench":%[3]q,"threads":%[4]d}]}`,
			b[0], b[1], b[2], i+2)
		before := make([]int, len(engines))
		for n, e := range engines {
			before[n] = e.Stats().CellRuns
		}
		if code, resp := fetch(t, http.MethodPost, urls[i]+"/v1/sweep?format="+format, body); code != http.StatusOK {
			t.Fatalf("%s at node %d: %d %s", format, i, code, resp)
		}
		for n, e := range engines {
			if runs := e.Stats().CellRuns - before[n]; runs != 1 {
				t.Errorf("%s sweep at node %d: node %d simulated %d cells, want its own one", format, i, n, runs)
			}
		}
	}
}
