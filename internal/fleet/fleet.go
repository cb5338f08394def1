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
//  2. A consults its peer-response cache under the request's canonical
//     identity — method, home, path, the options as the service's own
//     parser reads them (negotiated format, canonical benchmark name,
//     defaults filled; service.Identity.Options) and the body — so the
//     same question in another parameter order, through an Accept header
//     instead of ?format=, under an alias or with a default spelled out
//     is the same entry. A hit answers immediately with the bytes B
//     produced earlier.
//  3. On a miss, A forwards the request to B exactly as the client sent
//     it (raw query, Accept, body) with the hop header set (one hop at
//     most: B serves hop-marked requests locally, never re-forwards),
//     collapses concurrent misses of one identity onto one fetch, and
//     caches B's 200 response under that identity.
//  4. If B is unreachable, A falls back to simulating locally —
//     availability over strict exactly-once.
//
// Multi-cell batches (sweeps) whose cells have different homes make one
// NDJSON sub-sweep per home (the node's own group served inline), and each
// cell takes the next row line of its group's reply — a byte-exact merge,
// because every encoder is deterministic and the json form is exactly the
// indented ndjson rows (pinned by service tests). A group reply that is not
// a 200, or a 200 short of rows (a cell failed mid-stream), makes the node
// serve the whole batch itself, so an error names the client's cell index. Sweeps in csv/svg/text formats are served locally:
// those documents cannot be merged from row bytes.
//
// Determinism contract: a fleet answers every /v1 request with bytes
// identical to a single node's, because routing only changes where the
// simulation runs, never what is simulated (the engine memo and the ring
// key on the same fingerprint identity).
//
// What the fleet knows about the wire it learns from service.Identify,
// which reads the service's own route table: which requests are
// workload-keyed, their fingerprints, the replayable body within the
// route's limit, and how a batch splits into per-home sub-sweeps. This
// package holds no path, body shape or limit of the service — only what is
// its own: the ring, the peer cache, the forward, the fallback, the merge.
package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/service"
)

// Options configures a fleet member.
type Options struct {
	// Self is this node's address as it appears in Peers.
	Self string
	// Peers is the full member list, Self included, identical on every
	// node. Addresses may be host:port or http://host:port.
	Peers []string
	// CacheEntries bounds the peer-response cache, with memo.New's meaning:
	// 0 retains without bound, a negative limit retains nothing.
	CacheEntries int
	// Client performs peer requests (default http.DefaultClient; peer
	// calls inherit each request's context, so the service's own
	// SimTimeout bounds them).
	Client *http.Client
}

// Handler is the fleet routing layer around a service handler.
type Handler struct {
	inner  http.Handler
	ring   *Ring
	self   string
	client *http.Client
	// cache holds the peers' 200 responses by canonical request identity
	// (peerKey) and collapses concurrent misses of one identity onto one
	// forwarded request.
	cache *memo.Cache[string, *peerResp]

	local      atomic.Uint64 // routable requests and sub-sweeps served by this node as home
	forwarded  atomic.Uint64 // requests and sub-sweeps sent to a peer home
	received   atomic.Uint64 // hop-marked requests served for peers
	peerHits   atomic.Uint64 // answers filled from the peer-response cache
	peerErrors atomic.Uint64 // peer fetch failures (fell back to local)
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
	return &Handler{
		inner:  inner,
		ring:   ring,
		self:   self,
		client: client,
		cache:  memo.New[string, *peerResp](opts.CacheEntries),
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

// ServeHTTP routes one request: hop-marked and non-routable requests go
// straight to the local service; workload-keyed requests go to their home
// node; batches whose cells have different homes split per home. Anything
// whose identity does not resolve (oversized or malformed body, unknown
// benchmark, invalid spec) is served locally, where the service produces
// the canonical error.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(service.HopHeader) != "" {
		h.received.Add(1)
		h.inner.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/metrics" {
		h.serveMetrics(w, r)
		return
	}
	id, routable := service.Identify(r)
	if !routable {
		h.inner.ServeHTTP(w, r)
		return
	}
	if len(id.Keys) == 0 {
		h.serveLocal(w, r)
		return
	}
	homes := make([]string, len(id.Keys))
	oneHome := true
	for i, key := range id.Keys {
		homes[i] = h.ring.Owner(key)
		oneHome = oneHome && homes[i] == homes[0]
	}
	if oneHome {
		// One home owns every workload of the request: it forwards verbatim
		// (any format), and the home's engine deduplicates a batch
		// internally.
		h.routeHome(w, r, homes[0], id)
		return
	}
	h.routeSplit(w, r, homes, id)
}

// serveLocal serves r on the local service.
func (h *Handler) serveLocal(w http.ResponseWriter, r *http.Request) {
	h.local.Add(1)
	h.inner.ServeHTTP(w, r)
}

// routeHome serves a request whose one home node is known: locally when
// this node is the home, otherwise from the home peer via the response
// cache.
func (h *Handler) routeHome(w http.ResponseWriter, r *http.Request, home string, id service.Identity) {
	if home == h.self {
		h.serveLocal(w, r)
		return
	}
	resp, err := h.fromPeer(r, home, peerKey(r, home, id.Options, id.BodyID), r.URL.RawQuery, id.Body)
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
		h.peerErrors.Add(1)
		h.serveLocal(w, r)
		return
	}
	writePeerResp(w, resp)
}

// fromPeer answers from the peer-response cache, collapsing concurrent
// identical misses onto a single forwarded request. Only a whole 200 is
// retained for later callers; an error reply, a partial stream
// (service.Partial) or a failed fetch still reaches everyone who was waiting
// on it. Any answer this request did not fetch itself is a peer-cache hit. When the request that was fetching is canceled, a waiter
// that is still live fetches again instead of inheriting the cancellation.
func (h *Handler) fromPeer(r *http.Request, home, key, query string, body []byte) (*peerResp, error) {
	fetched := false
	resp, err := h.cache.Do(r.Context(), key, nil,
		func() (*peerResp, bool, error) {
			fetched = true
			resp, err := h.forward(r, home, query, body)
			return resp, err == nil && resp.status == http.StatusOK && !service.Partial(resp.body), err
		})
	if err == nil && !fetched {
		h.peerHits.Add(1)
	}
	return resp, err
}

// peerKey is the cache identity of a forwarded request: everything that
// can change the response bytes, in canonical form. options is the query and
// Accept header as the service parses them (service.Identity.Options), never
// the client's spelling; bodyID is the body's stand-in
// (service.Identity.BodyID).
func peerKey(r *http.Request, home, options, bodyID string) string {
	return r.Method + " " + home + r.URL.Path + "\x00" + options + "\x00" + bodyID
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
	h.forwarded.Add(1)
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A reply over the bound a node buffers is a peer failure like any other.
	data, err := service.ReadReply(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("fleet: reply from %s: %w", home, err)
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
	rec := &recorder{header: w.Header()} // the service's headers are the answer's
	h.inner.ServeHTTP(rec, r)
	w.WriteHeader(rec.status())
	w.Write(rec.body.Bytes())
	if rec.status() != http.StatusOK {
		return
	}
	fmt.Fprintf(w, "speedupd_fleet_nodes %d\n", h.ring.nodes)
	fmt.Fprintf(w, "speedupd_fleet_local_total %d\n", h.local.Load())
	fmt.Fprintf(w, "speedupd_fleet_forwarded_total %d\n", h.forwarded.Load())
	fmt.Fprintf(w, "speedupd_fleet_received_total %d\n", h.received.Load())
	fmt.Fprintf(w, "speedupd_fleet_peer_cache_hits_total %d\n", h.peerHits.Load())
	fmt.Fprintf(w, "speedupd_fleet_peer_errors_total %d\n", h.peerErrors.Load())
}

// recorder is a minimal in-process http.ResponseWriter for serving the
// local handler into a buffer (sub-sweeps, /metrics interception).
type recorder struct {
	header http.Header
	code   int // 0 until the response has started
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// status is the response code: 200 when the handler never set one.
func (r *recorder) status() int {
	r.WriteHeader(http.StatusOK)
	return r.code
}
