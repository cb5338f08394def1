package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"repro/internal/service"
	"repro/internal/stack"
)

// Batch splitting: a batch mixing cells with different home nodes is
// decomposed into one single-cell NDJSON sub-request per cell
// (service.Identity.Split says how), each dispatched to its home (or served
// locally), and the compact row lines are reassembled in declared order.
// The merge is byte-exact: the service pins that the json response body is
// exactly the indented array of the ndjson row lines, so both formats can
// be reconstituted from sub-request bytes without re-encoding (ReportRow
// floats are round-tripped nowhere). Formats whose documents are not
// row-concatenations (csv, svg, text) are served locally by the node that
// took the request.

// routeSplit answers a batch whose cells live on different homes.
func (h *Handler) routeSplit(w http.ResponseWriter, r *http.Request, homes []string, id service.Identity) {
	sp, ok := id.Split(r)
	if !ok {
		h.serveLocal(w, r)
		return
	}
	results := make([]*peerResp, len(homes))
	var wg sync.WaitGroup
	for i := range homes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = h.subRequest(r, homes[i], sp, sp.Bodies[i])
		}(i)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		// The client is gone: nobody to answer, and a local run now would
		// only simulate what the homes already own.
		return
	}
	for i := range results {
		if results[i] == nil {
			// A sub-request could not even be built; serving locally
			// produces the canonical envelope (and is mostly cache hits by
			// now).
			h.serveLocal(w, r)
			return
		}
		if results[i].status != http.StatusOK {
			// The first failing cell in declared order answers for the
			// batch, envelope and status untouched — matching the
			// single-node contract of one error per sweep.
			writePeerResp(w, results[i])
			return
		}
	}
	var rows bytes.Buffer
	for i := range results {
		rows.Write(results[i].body)
	}
	if sp.Format == stack.FormatNDJSON {
		w.Header().Set("Content-Type", stack.FormatNDJSON.ContentType())
		w.Write(rows.Bytes())
		return
	}
	lines := strings.Split(strings.TrimRight(rows.String(), "\n"), "\n")
	var merged bytes.Buffer
	if err := json.Indent(&merged, []byte("["+strings.Join(lines, ",")+"]"), "", "  "); err != nil {
		h.serveLocal(w, r)
		return
	}
	merged.WriteByte('\n')
	w.Header().Set("Content-Type", stack.FormatJSON.ContentType())
	w.Write(merged.Bytes())
}

// subRequest fills one single-cell sub-request from its home: locally when
// this node is home, else from the peer via the response cache with local
// fallback on peer failure. A fetch that ended with the request itself
// (the client hung up) is nobody's failure: it counts no peer error and
// starts no local simulation, which would only break exactly-once.
func (h *Handler) subRequest(r *http.Request, home string, sp service.Split, body []byte) *peerResp {
	if home != h.self {
		resp, err := h.fromPeer(r, home, peerKey(r, home, sp.Options, string(body)), sp.Query, body)
		if err == nil {
			return resp
		}
		if r.Context().Err() != nil {
			return nil
		}
		h.peerErrors.Add(1)
	}
	return h.localSub(r, sp.Query, body)
}

// localSub serves one sub-request on the local service. The hop header marks
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
