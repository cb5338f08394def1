// Package fleet shards a speedupd service across cooperating nodes. It is
// a routing middleware wrapped around the service handler: every node runs
// the same code with the same member list, a consistent-hash ring (ring.go)
// assigns each workload fingerprint a home node, and requests for a
// workload whose home is elsewhere are filled from that home over the
// ordinary /v1 HTTP surface — so the fleet-wide cost of a unique cell is
// one simulation, on its home node, no matter which node the client asked.
//
// Life of a request on node A for a workload homed on node B:
//
//  1. A resolves the request's workload identity (bench name or inline
//     spec) to its fingerprint without simulating anything, and looks up
//     the home on the ring.
//  2. A consults its peer-response cache; a hit answers immediately with
//     the bytes B produced earlier.
//  3. On a miss, A forwards the request to B with the hop header set
//     (one hop at most: B serves hop-marked requests locally, never
//     re-forwards), collapses concurrent identical misses onto one
//     fetch, and caches B's 200 response.
//  4. If B is unreachable, A falls back to simulating locally —
//     availability over strict exactly-once.
//
// POST /v1/sweep batches are split per cell: each cell is dispatched to
// its home as a single-cell NDJSON sub-sweep (one compact row line), and
// the rows are reassembled in declared order — a byte-exact merge, because
// every encoder is deterministic and the json form is exactly the indented
// ndjson rows (pinned by service tests). Sweeps in csv/svg/text formats
// are served locally: those documents cannot be merged from row bytes.
//
// Determinism contract: a fleet answers every /v1 request with bytes
// identical to a single node's, because routing only changes where the
// simulation runs, never what is simulated (the engine memo and the ring
// key on the same fingerprint identity).
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options configures a fleet member.
type Options struct {
	// Self is this node's address as it appears in Peers.
	Self string
	// Peers is the full member list, Self included, identical on every
	// node. Addresses may be host:port or http://host:port.
	Peers []string
	// CacheEntries bounds the peer-response cache (default 4096;
	// negative disables caching).
	CacheEntries int
	// Client performs peer requests (default http.DefaultClient; peer
	// calls inherit each request's context, so the service's own
	// SimTimeout bounds them).
	Client *http.Client
}

const defaultCacheEntries = 4096

// Handler is the fleet routing layer around a service handler.
type Handler struct {
	inner  http.Handler
	ring   *Ring
	self   string
	client *http.Client
	// cache holds the peers' 200 responses by full request identity and
	// collapses concurrent identical misses onto one forwarded request.
	cache *memo.Cache[string, *peerResp]

	mu         sync.Mutex
	local      uint64 // routable requests served by this node as home
	forwarded  uint64 // requests sent to a peer home
	received   uint64 // hop-marked requests served for peers
	peerHits   uint64 // answers filled from the peer-response cache
	peerErrors uint64 // peer fetch failures (fell back to local)
}

// peerResp is one captured peer (or local sub-request) response.
type peerResp struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// Wrap builds the fleet layer around inner, which must be the node's own
// service handler.
func Wrap(inner http.Handler, opts Options) (*Handler, error) {
	self := normalizeAddr(opts.Self)
	members := make([]string, len(opts.Peers))
	found := false
	for i, p := range opts.Peers {
		members[i] = normalizeAddr(p)
		found = found || members[i] == self
	}
	if !found {
		return nil, fmt.Errorf("fleet: self %q is not in the member list %v", opts.Self, opts.Peers)
	}
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	cacheEntries := opts.CacheEntries
	if cacheEntries == 0 {
		cacheEntries = defaultCacheEntries
	}
	return &Handler{
		inner:  inner,
		ring:   ring,
		self:   self,
		client: client,
		cache:  memo.New[string, *peerResp](cacheEntries),
	}, nil
}

// normalizeAddr gives every member address the same spelling: an http URL
// with no trailing slash.
func normalizeAddr(a string) string {
	a = strings.TrimRight(strings.TrimSpace(a), "/")
	if a == "" {
		return a
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return a
}

// Ring exposes the member ring (tests, status).
func (h *Handler) Ring() *Ring { return h.ring }

func (h *Handler) count(c *uint64) {
	h.mu.Lock()
	*c++
	h.mu.Unlock()
}

// ServeHTTP routes one request: hop-marked and non-routable requests go
// straight to the local service; workload-keyed requests go to their home
// node; sweeps split per cell.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(service.HopHeader) != "" {
		h.count(&h.received)
		h.inner.ServeHTTP(w, r)
		return
	}
	switch r.URL.Path {
	case "/metrics":
		h.serveMetrics(w, r)
		return
	case "/v1/stack", "/v1/stack/intervals", "/v1/advise":
		if r.Method == http.MethodGet {
			h.routeQueryBench(w, r)
			return
		}
	case "/v1/workloads/analyze", "/v1/whatif":
		if r.Method == http.MethodPost {
			h.routeBodyCell(w, r)
			return
		}
	case "/v1/traces/analyze":
		if r.Method == http.MethodPost {
			h.routeTrace(w, r)
			return
		}
	case "/v1/sweep":
		if r.Method == http.MethodPost {
			h.routeSweep(w, r)
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

// serveLocal serves r on the local service.
func (h *Handler) serveLocal(w http.ResponseWriter, r *http.Request) {
	h.count(&h.local)
	h.inner.ServeHTTP(w, r)
}

// routeQueryBench routes a GET keyed by its ?bench= parameter. Anything
// the fleet layer cannot resolve (missing or unknown bench) is served
// locally, where the service produces the canonical error.
func (h *Handler) routeQueryBench(w http.ResponseWriter, r *http.Request) {
	b, ok := workload.ByName(r.URL.Query().Get("bench"))
	if !ok {
		h.serveLocal(w, r)
		return
	}
	h.routeKeyed(w, r, b.Spec.Fingerprint().String(), nil)
}

// cellIdentity is the lenient decode of any body that carries a workload:
// just enough to compute the routing key, with full validation left to
// the home node's service.
type cellIdentity struct {
	Bench string          `json:"bench"`
	Spec  json.RawMessage `json:"spec"`
}

// fingerprint resolves the cell's workload identity, ok=false when the
// body does not resolve cleanly (the local service will answer the error).
func (c cellIdentity) fingerprint() (workload.Fingerprint, bool) {
	if len(c.Spec) > 0 {
		if c.Bench != "" {
			return workload.Fingerprint{}, false
		}
		spec, err := workload.ParseSpec(c.Spec)
		if err != nil {
			return workload.Fingerprint{}, false
		}
		return spec.Fingerprint(), true
	}
	b, ok := workload.ByName(c.Bench)
	if !ok {
		return workload.Fingerprint{}, false
	}
	return b.Spec.Fingerprint(), true
}

// readBody buffers a POST body so it can be parsed for routing and then
// replayed, either to the local service or to a peer. ok=false means the
// body is oversized or unreadable; the caller should serve locally and
// let the service's own limits answer.
func readBody(r *http.Request) ([]byte, bool) {
	return readBodyN(r, 1<<20)
}

// readBodyN is readBody with an explicit size bound (trace uploads are
// bounded by the service's own 32MB trace limit, not the 1MB JSON bound).
func readBodyN(r *http.Request, limit int64) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil || int64(len(body)) > limit {
		return body, false
	}
	return body, true
}

// routeBodyCell routes a POST whose body is one cell (analyze, whatif).
func (h *Handler) routeBodyCell(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(r)
	if !ok {
		h.serveLocal(w, r)
		return
	}
	var c cellIdentity
	if err := json.Unmarshal(body, &c); err != nil {
		h.serveLocal(w, r)
		return
	}
	fp, ok := c.fingerprint()
	if !ok {
		h.serveLocal(w, r)
		return
	}
	h.routeKeyed(w, r, fp.String(), body)
}

// routeTrace routes POST /v1/traces/analyze. The routing key is the
// trace's cheap header identity — workload.TraceIdentity over DecodeMeta,
// the same fingerprint the home's engine memo keys on — so the
// multi-megabyte payload is never decoded on the routing path, and the
// peer-response cache keys on that identity (plus the label, which appears
// in the response row) instead of the payload bytes. A body that does not
// even yield a header is served locally, where the service produces the
// canonical 400 envelope.
func (h *Handler) routeTrace(w http.ResponseWriter, r *http.Request) {
	body, ok := readBodyN(r, service.MaxTraceBytes)
	if !ok {
		h.serveLocal(w, r)
		return
	}
	m, err := trace.DecodeMeta(body)
	if err != nil {
		h.serveLocal(w, r)
		return
	}
	key := workload.TraceIdentity(m).String()
	h.routeHome(w, r, h.ring.Owner(key), body, "trace\x00"+key+"\x00"+m.Label)
}

// routeKeyed serves a single-workload request: locally when this node is
// the key's home, otherwise from the home peer via the response cache.
func (h *Handler) routeKeyed(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	h.routeHome(w, r, h.ring.Owner(key), body, string(body))
}

// routeHome serves a request whose home node is already known. bodyID
// stands in for the body in the peer-cache identity — the body itself for
// JSON requests, the compact header identity for trace uploads.
func (h *Handler) routeHome(w http.ResponseWriter, r *http.Request, home string, body []byte, bodyID string) {
	if home == h.self {
		h.serveLocal(w, r)
		return
	}
	resp, err := h.fromPeer(r, home, r.URL.RawQuery, body, bodyID)
	if err != nil {
		if r.Context().Err() != nil {
			// The fetch ended with this request, not with the peer: the
			// client is gone, so there is nobody to answer, no peer failed,
			// and a local simulation would only break exactly-once.
			return
		}
		// The home is unreachable: simulate locally rather than fail the
		// request. This trades strict fleet-wide exactly-once for
		// availability during partitions; the local result is byte-identical
		// by the determinism contract.
		h.count(&h.peerErrors)
		h.serveLocal(w, r)
		return
	}
	writePeerResp(w, resp)
}

// fromPeer answers from the peer-response cache, collapsing concurrent
// identical misses onto a single forwarded request. Only a 200 is retained
// for later callers; an error reply or a failed fetch still reaches everyone
// who was waiting on it. Any answer this request did not fetch itself is a
// peer-cache hit. When the request that was fetching is canceled, a waiter
// that is still live fetches again instead of inheriting the cancellation.
func (h *Handler) fromPeer(r *http.Request, home, query string, body []byte, bodyID string) (*peerResp, error) {
	fetched := false
	resp, err := h.cache.Do(r.Context(), peerKey(r, home, query, bodyID), nil,
		func() (*peerResp, bool, error) {
			fetched = true
			resp, err := h.forward(r, home, query, body)
			return resp, err == nil && resp.status == http.StatusOK, err
		})
	if err == nil && !fetched {
		h.count(&h.peerHits)
	}
	return resp, err
}

// peerKey is the cache identity of a forwarded request: everything that
// can change the response bytes (the Accept header participates in format
// negotiation). bodyID is the body's stand-in — its bytes for JSON
// requests, its header identity for traces.
func peerKey(r *http.Request, home, query, bodyID string) string {
	return r.Method + " " + home + r.URL.Path + "?" + query +
		"\x00" + r.Header.Get("Accept") + "\x00" + bodyID
}

// forward performs one hop-marked peer request and captures the response.
func (h *Handler) forward(r *http.Request, home, query string, body []byte) (*peerResp, error) {
	u := home + r.URL.Path
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(service.HopHeader, h.self)
	if a := r.Header.Get("Accept"); a != "" {
		req.Header.Set("Accept", a)
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	h.count(&h.forwarded)
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &peerResp{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        data,
	}, nil
}

func writePeerResp(w http.ResponseWriter, resp *peerResp) {
	if resp.contentType != "" {
		w.Header().Set("Content-Type", resp.contentType)
	}
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// serveMetrics appends the fleet counters to the service's /metrics page.
func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	rec := newRecorder()
	h.inner.ServeHTTP(rec, r)
	for k, v := range rec.header {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.code)
	w.Write(rec.body.Bytes())
	if rec.code != http.StatusOK {
		return
	}
	h.mu.Lock()
	local, forwarded, received := h.local, h.forwarded, h.received
	peerHits, peerErrors := h.peerHits, h.peerErrors
	h.mu.Unlock()
	fmt.Fprintf(w, "speedupd_fleet_nodes %d\n", len(h.ring.nodes))
	fmt.Fprintf(w, "speedupd_fleet_local_total %d\n", local)
	fmt.Fprintf(w, "speedupd_fleet_forwarded_total %d\n", forwarded)
	fmt.Fprintf(w, "speedupd_fleet_received_total %d\n", received)
	fmt.Fprintf(w, "speedupd_fleet_peer_cache_hits_total %d\n", peerHits)
	fmt.Fprintf(w, "speedupd_fleet_peer_errors_total %d\n", peerErrors)
}

// recorder is a minimal in-process http.ResponseWriter for serving the
// local handler into a buffer (sub-sweeps, /metrics interception).
type recorder struct {
	header http.Header
	code   int
	wrote  bool
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), code: http.StatusOK}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.body.Write(b)
}
