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
//  2. A consults its peer cache under the request's canonical identity —
//     method, home, path, the options as the service's own parser reads
//     them (negotiated format, canonical benchmark name, defaults filled;
//     service.Identity.Options) and the body — so the same question in
//     another parameter order, through an Accept header instead of
//     ?format=, under an alias or with a default spelled out is the same
//     entry. An aggregate report (a stack.Bars reply; service.Identity.Rows
//     says which) is kept as its bars under the identity with the format
//     left out, so a hit in any format renders them through the service's
//     own writer (service.WriteDocument) into the bytes B would write.
//     Other replies (intervals, advise, what-if) are kept as B's bytes.
//  3. On a miss, A forwards the request to B exactly as the client sent it
//     (raw query, Accept, body) with the hop header set (one hop at most:
//     B serves hop-marked requests locally, never re-forwards) and, for a
//     report, the rows header: B answers the bars' exact rows
//     (stack.FormatRows). Concurrent misses of one identity collapse onto
//     one fetch, and only a 200 is kept. B's error is relayed as written
//     for the client's format; a waiter in another format asks again.
//  4. If B is unreachable, A falls back to simulating locally —
//     availability over strict exactly-once.
//
// Every sweep with a remote home is dealt by home, in any format: its
// cells, decoded as a node decodes them, make one sub-sweep per home (one
// home, one sub-sweep), each group is fetched as exact rows (the node's own
// from its own service), each cell takes the next bar of its group, and the
// whole report is rendered once. A group answered with anything but one bar
// per cell makes the node serve the whole batch itself, so an error names
// the client's cell index.
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
// its own: the ring, the peer cache, the forward, the fallback, the dealing
// of a split sweep's bars.
package fleet

import (
	"bytes"
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/stack"
)

// Options configures a fleet member.
type Options struct {
	// Self is this node's address as it appears in Peers.
	Self string
	// Peers is the full member list, Self included, identical on every
	// node. Addresses may be host:port or http://host:port.
	Peers []string
	// CacheEntries bounds the peer cache in entries, each one aggregate
	// report (whatever formats it is asked in) or one other reply, with
	// memo.New's meaning: 0 retains without bound, a negative limit retains
	// nothing.
	CacheEntries int
	// Client performs peer requests (default http.DefaultClient, which has
	// no timeout; a peer call inherits the inbound request's context, so
	// only the calling client's own deadline or disconnect bounds it).
	Client *http.Client
}

// Handler is the fleet routing layer around a service handler.
type Handler struct {
	inner  http.Handler
	ring   *Ring
	self   string
	client *http.Client
	// cache holds the peers' 200 answers by canonical request identity
	// (peerKey) — an aggregate report's bars, or any other reply's bytes —
	// and collapses concurrent misses of one identity onto one forwarded
	// request.
	cache *memo.Cache[string, *peerResp]

	local      atomic.Uint64 // routable requests and sub-sweeps served by this node as home
	forwarded  atomic.Uint64 // requests and sub-sweeps sent to a peer home
	received   atomic.Uint64 // hop-marked requests served for peers
	peerHits   atomic.Uint64 // answers filled from the peer cache
	peerErrors atomic.Uint64 // peer fetch failures (fell back to local)
}

// peerResp is one captured peer (or local sub-request) response: a 200
// answer to the rows header holds its report's bars and no bytes, any other
// its bytes.
type peerResp struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
	bars        stack.Bars
	// options is the Options of the request that fetched it, whose format
	// an error reply is written in.
	options string
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
// straight to the local service. A routable one is grouped by home once.
// Homed entirely here, or nowhere (an identity that does not resolve: a
// malformed body, an unknown benchmark, a sweep whose query its route
// rejects, which Split cannot divide), it is served here, where the service
// writes any error. A sweep with a remote home is dealt by home
// (routeSplit), one home being one group; any other request is fetched from
// its one home (routeHome).
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
	// Groups are numbered by the declared position of their first workload.
	var homes []string
	group := make([]int, len(id.Keys))
	for i, key := range id.Keys {
		home := h.ring.Owner(key)
		if group[i] = slices.Index(homes, home); group[i] < 0 {
			group[i], homes = len(homes), append(homes, home)
		}
	}
	if len(homes) == 0 || len(homes) == 1 && homes[0] == h.self {
		h.serveLocal(w, r)
		return
	}
	if sp, ok := id.Split(group); ok {
		h.routeSplit(w, r, id, sp, homes, group)
		return
	}
	h.routeHome(w, r, homes[0], id) // one workload, so one home
}

// serveLocal serves r on the local service.
func (h *Handler) serveLocal(w http.ResponseWriter, r *http.Request) {
	h.local.Add(1)
	h.inner.ServeHTTP(w, r)
}

// routeHome serves a single-workload request from its home peer via the
// peer cache.
func (h *Handler) routeHome(w http.ResponseWriter, r *http.Request, home string, id service.Identity) {
	rows := id.Rows != ""
	resp, err := h.fromPeer(r, home, peerKey(r, home, cmp.Or(id.Rows, id.Options), id.BodyID), id.Options, r.URL.RawQuery, id.Body, rows)
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
	if resp.status == http.StatusOK && rows {
		h.render(w, r, id.Format, resp.bars)
		return
	}
	writePeerResp(w, resp) // a reply's bytes, or the client's own error
}

// render answers r with a report in format f through the service's own
// writer of a one-document reply. A report the format cannot spell (a
// non-finite number in a JSON body) is served here instead, where the
// service writes its error as a single node would.
func (h *Handler) render(w http.ResponseWriter, r *http.Request, f stack.Format, bars stack.Bars) {
	if service.WriteDocument(w, f, bars) != nil {
		h.serveLocal(w, r)
	}
}

// fromPeer answers from the peer cache, collapsing concurrent identical
// misses onto a single forwarded request; rows asks the home for the
// report's exact rows. Only a 200 is retained for later callers; an error
// reply or a failed fetch still reaches everyone who was waiting on it,
// except that an error written for another format (options is this
// request's Options) is fetched again for this one. Any answer this request
// did not fetch itself is a peer-cache hit. When the request that was
// fetching is canceled, a waiter that is still live fetches again instead
// of inheriting the cancellation.
func (h *Handler) fromPeer(r *http.Request, home, key, options, query string, body []byte, rows bool) (*peerResp, error) {
	fetched := false
	resp, err := h.cache.Do(r.Context(), key, nil,
		func() (*peerResp, bool, error) {
			fetched = true
			resp, err := h.forward(r, home, query, body, rows)
			if err != nil {
				return nil, false, err
			}
			resp.options = options
			return resp, resp.status == http.StatusOK, nil
		})
	if err != nil || fetched {
		return resp, err
	}
	if resp.status != http.StatusOK && resp.options != options {
		return h.forward(r, home, query, body, rows)
	}
	h.peerHits.Add(1)
	return resp, nil
}

// peerKey is the cache identity of a forwarded request: everything that
// can change the answer, in canonical form. options is the query and Accept
// header as the service parses them (service.Identity.Options, or Rows for
// a report, which every format renders), never the client's spelling;
// bodyID is the body's stand-in (service.Identity.BodyID).
func peerKey(r *http.Request, home, options, bodyID string) string {
	return r.Method + " " + home + r.URL.Path + "\x00" + options + "\x00" + bodyID
}

// forward performs one hop-marked peer request and captures the response;
// with rows, a 200 is the report's exact rows, decoded into its bars.
func (h *Handler) forward(r *http.Request, home, query string, body []byte, rows bool) (*peerResp, error) {
	u := home + r.URL.Path
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(service.HopHeader, h.self)
	if rows {
		req.Header.Set(service.RowsHeader, "1")
	}
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
	return capture(resp.StatusCode, resp.Header, data, rows)
}

// capture is a reply's peerResp: a 200 rows reply holds its decoded bars
// (malformed rows are a peer failure), any other reply its bytes.
func capture(status int, header http.Header, data []byte, rows bool) (*peerResp, error) {
	resp := &peerResp{
		status:      status,
		contentType: header.Get("Content-Type"),
		retryAfter:  header.Get("Retry-After"),
		body:        data,
	}
	if rows && status == http.StatusOK {
		bars, err := stack.DecodeRows(data)
		if err != nil {
			return nil, err
		}
		resp.body, resp.bars = nil, bars
	}
	return resp, nil
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

// serveMetrics appends the fleet's families to the service's /metrics page,
// through the service's one writer of the format.
func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	rec := &recorder{header: w.Header()} // the service's headers are the answer's
	h.inner.ServeHTTP(rec, r)
	w.WriteHeader(rec.status())
	w.Write(rec.body.Bytes())
	if rec.status() != http.StatusOK {
		return
	}
	occ := h.cache.Occupancy()
	service.WriteMetrics(w,
		service.Scalar("speedupd_fleet_nodes", "Members of the fleet's ring.", service.Gauge, uint64(h.ring.nodes)),
		service.Scalar("speedupd_fleet_local_total", "Routable requests and sub-sweeps served here as their home.", service.Counter, h.local.Load()),
		service.Scalar("speedupd_fleet_forwarded_total", "Requests and sub-sweeps forwarded to a peer home.", service.Counter, h.forwarded.Load()),
		service.Scalar("speedupd_fleet_received_total", "Hop-marked requests served for peers.", service.Counter, h.received.Load()),
		service.Scalar("speedupd_fleet_peer_cache_hits_total", "Answers filled from the peer cache.", service.Counter, h.peerHits.Load()),
		service.Scalar("speedupd_fleet_peer_errors_total", "Peer fetches that failed and fell back to local.", service.Counter, h.peerErrors.Load()),
		service.Scalar("speedupd_fleet_peer_cache_entries", "Peer-cache entries: retained reports and replies, and fetches in flight.", service.Gauge, uint64(occ.Entries)),
		service.Scalar("speedupd_fleet_peer_cache_evictions_total", "Peer-cache entries evicted to stay within the cache's bound.", service.Counter, uint64(occ.Evictions)),
	)
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
