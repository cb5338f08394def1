package fleet

import (
	"bytes"
	"net/http"
	"slices"
	"sync"

	"repro/internal/service"
	"repro/internal/stack"
)

// routeSplit answers a batch whose cells live on different homes with one
// sub-sweep per home: n cells over h homes cost h sub-requests, each
// answered as its group's exact rows.
func (h *Handler) routeSplit(w http.ResponseWriter, r *http.Request, homes []string, id service.Identity) {
	// Groups are numbered by the declared position of their first cell.
	var groupHomes []string
	group := make([]int, len(homes))
	for i, home := range homes {
		if group[i] = slices.Index(groupHomes, home); group[i] < 0 {
			group[i], groupHomes = len(groupHomes), append(groupHomes, home)
		}
	}
	sp, ok := id.Split(group)
	if !ok {
		h.serveLocal(w, r)
		return
	}
	results := make([]stack.Bars, len(groupHomes))
	var wg sync.WaitGroup
	for g, home := range groupHomes {
		if home != h.self {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[g] = h.subRequest(r, home, sp.Query, id.Rows, sp.Bodies[g])
			}()
		}
	}
	if g := slices.Index(groupHomes, h.self); g >= 0 {
		results[g] = h.localSub(r, sp.Query, sp.Bodies[g])
	}
	wg.Wait()
	if r.Context().Err() != nil {
		// The client is gone: nobody to answer, and a local run now would
		// only simulate what the homes already own.
		return
	}
	// Each cell, in declared order, takes the next bar of its group.
	bars := make(stack.Bars, len(group))
	next := make([]int, len(results))
	for i, g := range group {
		if next[g] == len(results[g]) {
			// A group refused or timed out on its home (no bars), or
			// answered short: its error would name the cell's index in the
			// group, so only the whole batch, served here, gives the single
			// node's answer (and is mostly cache hits by now).
			h.serveLocal(w, r)
			return
		}
		bars[i] = results[g][next[g]]
		next[g]++
	}
	for g, res := range results {
		if next[g] != len(res) {
			h.serveLocal(w, r) // a group answered more bars than cells
			return
		}
	}
	h.render(w, r, id.Format, bars)
}

// subRequest fills one remote group's bars from its home via the peer
// cache, under options (the batch's Identity.Rows), with local fallback on
// peer failure; nil when the home refused the group. A fetch that ended
// with the request itself (the client hung up) is nobody's failure: it
// counts no peer error and starts no local simulation, which would only
// break exactly-once.
func (h *Handler) subRequest(r *http.Request, home, query, options string, body []byte) stack.Bars {
	resp, err := h.fromPeer(r, home, peerKey(r, home, options, string(body)), options, query, body, true)
	if err == nil {
		return resp.bars
	}
	if r.Context().Err() != nil {
		return nil
	}
	h.peerErrors.Add(1)
	return h.localSub(r, query, body)
}

// localSub serves one group's sub-sweep on the local service, as exact
// rows, and returns its bars; nil when the service refused it. The hop
// header marks it fleet-internal: the client was already rate-limit-
// accounted when the batch was accepted.
func (h *Handler) localSub(r *http.Request, query string, body []byte) stack.Bars {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, r.URL.Path+"?"+query, bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HopHeader, h.self)
	req.Header.Set(service.RowsHeader, "1")
	h.local.Add(1)
	rec := &recorder{header: make(http.Header)}
	h.inner.ServeHTTP(rec, req)
	resp, err := capture(rec.status(), rec.header, rec.body.Bytes(), true)
	if err != nil {
		return nil
	}
	return resp.bars
}
