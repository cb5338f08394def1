package fleet_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
)

// spelling is one way a client can put a question to a GET route.
type spelling struct{ query, accept string }

// TestFleetPeerCacheKeyIsCanonical pins the peer cache's key on every
// routable GET row: however a question is spelled — any parameter order,
// the format by ?format=, by Accept or by default, an alias or the full
// name, a default spelled out or left out — it is one entry. The first
// spelling is forwarded to the home exactly as the client sent it (asserted
// in the home's own handler), every later one is a peer-cache hit, and all
// answer the home's bytes. A /v1/stack entry is the stack itself, so the
// same cell in another format is a hit too, answering the home's bytes in
// that format; an intervals or advise entry is a reply, kept under its
// format. What the home would answer differently is not shared: of a
// repeated parameter the home reads the first value, so the two orders of
// ?threads=3&threads=1 are two entries; and a non-200 is passed on but
// never kept.
func TestFleetPeerCacheKeyIsCanonical(t *testing.T) {
	// The pattern's plain name resolves to it alone, so it has an alias.
	const full, alias = "false_sharing_contention", "false_sharing"

	// Two fleet nodes, each behind a tap that notes the hop-marked requests
	// its handler receives.
	var mu sync.Mutex
	var hops []spelling
	late := []*lateHandler{{}, {}}
	urls := make([]string, len(late))
	for i := range late {
		srv := httptest.NewServer(late[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	handlers := make([]*fleet.Handler, len(late))
	for i := range late {
		svc := service.New(service.Options{Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(2))})
		fh, err := fleet.Wrap(svc.Handler(), fleet.Options{Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = fh
		late[i].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(service.HopHeader) != "" {
				mu.Lock()
				hops = append(hops, spelling{r.URL.RawQuery, r.Header.Get("Accept")})
				mu.Unlock()
			}
			fh.ServeHTTP(w, r)
		}))
	}
	home, away := homeAndAway(t, urls, handlers[0], full)

	ask := func(node int, path string, s spelling) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, urls[node]+path+"?"+s.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.accept != "" {
			req.Header.Set("Accept", s.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	// step asks the away node one spelling and checks what it cost: a forward
	// that reached the home verbatim, or a peer-cache hit and no forward; in
	// both cases the home's own answer to wantAs.
	step := func(path string, s spelling, wantCode int, wantHit bool, wantAs spelling) {
		t.Helper()
		fwd := metric(t, urls[away], "speedupd_fleet_forwarded_total")
		hits := metric(t, urls[away], "speedupd_fleet_peer_cache_hits_total")
		mu.Lock()
		hops = hops[:0]
		mu.Unlock()
		code, body := ask(away, path, s)
		fwd = metric(t, urls[away], "speedupd_fleet_forwarded_total") - fwd
		hits = metric(t, urls[away], "speedupd_fleet_peer_cache_hits_total") - hits
		mu.Lock()
		got := append([]spelling(nil), hops...)
		mu.Unlock()
		if wantHit && (fwd != 0 || hits != 1 || len(got) != 0) {
			t.Errorf("%s?%s (Accept %q): %d forwards, %d hits, home saw %v; want a peer-cache hit and nothing forwarded",
				path, s.query, s.accept, fwd, hits, got)
		}
		if !wantHit && (fwd != 1 || hits != 0 || len(got) != 1 || got[0] != s) {
			t.Errorf("%s?%s (Accept %q): %d forwards, %d hits, home saw %v; want one forward of exactly what the client sent",
				path, s.query, s.accept, fwd, hits, got)
		}
		if homeCode, want := ask(home, path, wantAs); code != wantCode || homeCode != wantCode || body != want {
			t.Errorf("%s?%s (Accept %q): %d %q, the home answers ?%s with %d %q",
				path, s.query, s.accept, code, body, wantAs.query, homeCode, want)
		}
	}

	for _, g := range []struct {
		path   string
		asked  []spelling // one question; the first spelling is the one forwarded
		cached bool       // an earlier group's entry answers the first spelling too
	}{
		{"/v1/stack", []spelling{
			{"bench=" + full + "&threads=2", ""},
			{"threads=2&bench=" + full, ""},
			{"format=json&threads=2&bench=" + full, ""},
			{"bench=" + full + "&threads=2", "application/json"},
			{"threads=2&bench=" + alias, "text/html, application/json;q=0.9"},
			{"cores=2&mode=exact&threads=2&format=json&bench=" + alias, "text/csv"},
			{"bench=" + full + "&threads=2&threads=1", ""}, // the first value wins
		}, false},
		{"/v1/stack", []spelling{ // the format is not part of the question: the stack is kept
			{"threads=2&bench=" + full, "text/csv"},
			{"bench=" + alias + "&format=csv&threads=2", ""},
			{"format=svg&threads=2&bench=" + full, ""},
			{"bench=" + full + "&threads=2", "text/plain"},
			{"bench=" + alias + "&threads=2&format=ndjson", ""},
		}, true},
		{"/v1/stack/intervals", []spelling{
			{"intervals=4&threads=2&bench=" + alias, "application/json"},
			{"bench=" + full + "&threads=2&intervals=4", ""},
			{"mode=exact&format=json&cores=2&bench=" + full + "&intervals=4&threads=2", ""},
		}, false},
		{"/v1/stack/intervals", []spelling{ // the default count, left out or spelled out
			{"bench=" + full + "&threads=2", ""},
			{"intervals=32&threads=2&bench=" + full, ""},
		}, false},
		{"/v1/advise", []spelling{
			{"bench=" + full + "&max_threads=4", ""},
			{"max_threads=4&bench=" + alias, ""},
			{"mode=exact&max_threads=4&format=json&bench=" + full, ""},
			{"max_threads=4&bench=" + full, "application/json"},
		}, false},
	} {
		for i, s := range g.asked {
			wantAs := g.asked[0]
			if g.cached {
				wantAs = s // the home's own bytes in this spelling's format
			}
			step(g.path, s, http.StatusOK, i > 0 || g.cached, wantAs)
		}
	}

	// Two orders of a repeated parameter are two questions.
	step("/v1/stack", spelling{"bench=" + full + "&threads=3&threads=1", ""}, http.StatusOK, false, spelling{"bench=" + full + "&threads=3", ""})
	step("/v1/stack", spelling{"bench=" + full + "&threads=1&threads=3", ""}, http.StatusOK, false, spelling{"bench=" + full + "&threads=1", ""})
	step("/v1/stack", spelling{"threads=3&bench=" + alias, ""}, http.StatusOK, true, spelling{"bench=" + full + "&threads=3", ""})

	// The home's error is the answer, and is asked for again every time.
	bad := spelling{"bench=" + full + "&threads=0", ""}
	step("/v1/stack", bad, http.StatusBadRequest, false, bad)
	step("/v1/stack", bad, http.StatusBadRequest, false, bad)
	if n := metric(t, urls[away], "speedupd_fleet_peer_errors_total"); n != 0 {
		t.Errorf("%d peer errors", n)
	}
}
