package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spans are recorded in memory from the benchmark's own wrappers around the
// calls into each layer, and written out when the run ends:
//
//	client.request -> fleet.handle -> fleet.peer_rtt -> fleet.handle (home)
//	               -> service.handle -> exp.run
//
// The spans of one request share its client.request's ID as Trace. A span's
// self time is its duration minus what its children cover.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	// Attr is the request kind (client, fleet and service spans) or the
	// simulation "kind bench xthreads" (exp.run).
	Attr    string `json:"attr,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"` // response body size (service.handle)
}

func (s span) dur() float64 { return float64(s.EndNS - s.StartNS) }

// link is what travels with a request so the next wrapper can parent its
// span: in the request context inside a process, in spanHeader over HTTP.
type link struct {
	trace, parent int
	kind          string
}

type linkKey struct{}

const spanHeader = "X-Bench-Span"

func (l link) header() string { return fmt.Sprintf("%d-%d-%s", l.trace, l.parent, l.kind) }

func linkOf(r *http.Request) link {
	if l, ok := r.Context().Value(linkKey{}).(link); ok {
		return l
	}
	var l link
	parts := strings.SplitN(r.Header.Get(spanHeader), "-", 3)
	if len(parts) == 3 {
		l.trace, _ = strconv.Atoi(parts[0])
		l.parent, _ = strconv.Atoi(parts[1])
		l.kind = parts[2]
	}
	return l
}

// recorder collects spans while on; every method is a no-op while off, so
// the untraced loop runs the same code without the recording.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	// cur is, per node, the open span a simulation on that node belongs to
	// (the engine's run hook carries no request), and run the open exp.run.
	cur, run map[int]int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), cur: map[int]int{}, run: map[int]int{}}
}

func (r *recorder) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// snapshot copies the spans recorded from index from on. A span still open
// (a home node's handler can return after the client has its reply) ends now.
func (r *recorder) snapshot(from int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans[from:]...)
	for i := range out {
		if out[i].EndNS == 0 {
			out[i].EndNS = int64(time.Since(r.t0))
		}
	}
	return out
}

func (r *recorder) isOn() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// start opens a span and returns its ID, 0 while recording is off. A span
// with trace 0 starts a trace of its own.
func (r *recorder) start(name string, l link, node int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.startLocked(name, l, node)
}

func (r *recorder) startLocked(name string, l link, node int) int {
	if !r.on {
		return 0
	}
	id := len(r.spans) + 1
	if l.trace == 0 {
		l.trace = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: l.parent, Trace: l.trace, Name: name, Node: node,
		Attr: l.kind, StartNS: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(id, bytes)
}

func (r *recorder) endLocked(id, bytes int) {
	if id == 0 {
		return
	}
	r.spans[id-1].EndNS = int64(time.Since(r.t0))
	r.spans[id-1].Bytes = bytes
}

// setCur names the span simulations on node belong to from now on, closing
// the node's open exp.run; id 0 means none.
func (r *recorder) setCur(node, id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(r.run[node], 0)
	r.run[node], r.cur[node] = 0, id
}

// endRun closes the node's open exp.run, startRun opens the next under the
// node's current span. The engine has one worker, so a node's runs follow
// one another; the hook times the reference kernel between the two.
func (r *recorder) endRun(node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(r.run[node], 0)
	r.run[node] = 0
}

func (r *recorder) startRun(node int, attr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent := r.cur[node]; parent != 0 {
		r.run[node] = r.startLocked("exp.run", link{trace: r.spans[parent-1].Trace, parent: parent, kind: attr}, node)
	}
}

// countingWriter counts response bytes; it forwards Flush so streamed
// sweeps still stream.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return w.ResponseWriter.Write(b)
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handler wraps one layer's http.Handler in a span named name. The span
// travels on in the request context, so inner wrappers and the peer
// RoundTripper parent to it. owner marks the service layer, whose span owns
// the node's simulations.
func (r *recorder) handler(name string, node int, owner bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		l := linkOf(req)
		id := r.start(name, l, node)
		if id == 0 {
			h.ServeHTTP(w, req)
			return
		}
		l.parent = id
		cw := &countingWriter{ResponseWriter: w}
		if owner {
			r.setCur(node, id)
		}
		h.ServeHTTP(cw, req.WithContext(context.WithValue(req.Context(), linkKey{}, l)))
		if owner {
			r.setCur(node, 0)
		}
		r.end(id, cw.n)
	})
}

// peerTransport is the RoundTripper inside fleet.Options.Client: it dials
// the fixed member names to the real listeners and records fleet.peer_rtt.
type peerTransport struct {
	rec  *recorder
	node int
	base http.RoundTripper
}

func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	l := linkOf(req)
	id := t.rec.start("fleet.peer_rtt", l, t.node)
	if id != 0 {
		l.parent = id
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, l.header())
	}
	resp, err := t.base.RoundTrip(req)
	// The home has answered once the headers are back; the body is a few
	// kilobytes already in flight.
	t.rec.end(id, 0)
	return resp, err
}

// selfTimes returns, for every span, its duration minus the part of it its
// children cover (overlapping children are not counted twice).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			a, b := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.ID] = float64(s.EndNS - s.StartNS - covered)
	}
	return self
}
