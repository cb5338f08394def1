package fleet

import (
	"bytes"
	"net/http"
	"slices"
	"sync"

	"repro/internal/service"
)

// routeSplit answers a batch whose cells live on different homes with one
// sub-sweep per home: n cells over h homes cost h sub-requests.
func (h *Handler) routeSplit(w http.ResponseWriter, r *http.Request, homes []string, id service.Identity) {
	// Groups are numbered by the declared position of their first cell.
	var groupHomes []string
	group := make([]int, len(homes))
	for i, home := range homes {
		if group[i] = slices.Index(groupHomes, home); group[i] < 0 {
			group[i], groupHomes = len(groupHomes), append(groupHomes, home)
		}
	}
	sp, ok := id.Split(r, group)
	if !ok {
		h.serveLocal(w, r)
		return
	}
	results := make([]*peerResp, len(groupHomes))
	var wg sync.WaitGroup
	for g, home := range groupHomes {
		if home != h.self {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[g] = h.subRequest(r, home, sp, sp.Bodies[g])
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
	replies := make([][]byte, len(results))
	for g, res := range results {
		if res == nil || res.status != http.StatusOK {
			// No sub-request, or a group refused or timed out on its home:
			// its error would name the cell's index in the group, so only
			// the whole batch, served here, gives the single node's answer
			// (and is mostly cache hits by now).
			h.serveLocal(w, r)
			return
		}
		replies[g] = res.body
	}
	body, ok := sp.Merge(replies)
	if !ok {
		// A group's reply is short of rows (a cell failed mid-stream): the
		// same local answer.
		h.serveLocal(w, r)
		return
	}
	w.Header().Set("Content-Type", sp.Format.ContentType())
	w.Write(body)
}

// subRequest fills one remote group's sub-sweep from its home via the
// response cache, with local fallback on peer failure. A fetch that ended
// with the request itself (the client hung up) is nobody's failure: it
// counts no peer error and starts no local simulation, which would only
// break exactly-once.
func (h *Handler) subRequest(r *http.Request, home string, sp service.Split, body []byte) *peerResp {
	resp, err := h.fromPeer(r, home, peerKey(r, home, sp.Options, string(body)), sp.Query, body)
	if err == nil {
		return resp
	}
	if r.Context().Err() != nil {
		return nil
	}
	h.peerErrors.Add(1)
	return h.localSub(r, sp.Query, body)
}

// localSub serves one sub-sweep on the local service. The hop header marks
// it fleet-internal: the client was already rate-limit-accounted when the
// batch was accepted.
func (h *Handler) localSub(r *http.Request, query string, body []byte) *peerResp {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, r.URL.Path+"?"+query, bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HopHeader, h.self)
	h.local.Add(1)
	rec := &recorder{header: make(http.Header)}
	h.inner.ServeHTTP(rec, req)
	return &peerResp{
		status:      rec.status(),
		contentType: rec.header.Get("Content-Type"),
		retryAfter:  rec.header.Get("Retry-After"),
		body:        rec.body.Bytes(),
	}
}
