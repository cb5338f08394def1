// Package client is the Go client for the speedupd HTTP service: typed
// wrappers over every /v1 endpoint, sharing the root package's wire types
// (speedupstack.StackRow, speedupstack.Advice, ...) so a program can move
// between the in-process library and the service without translating.
//
// Setting Client.Mode to "fast" asks the server for sampled fast-mode
// simulation on every simulating call (README, "Fast mode: sampled
// simulation").
// Setting Client.Retries lets idempotent GETs ride out the server's
// overload shedding (429, 503) with jittered backoff that honors
// Retry-After; POSTs are never retried.
//
// Failures follow the service's uniform envelope: any 4xx/5xx response
// decodes into an *APIError carrying the machine-readable code, the
// human-readable message, and — on unknown-benchmark 404s — the
// nearest-name suggestion:
//
//	row, err := c.Stack(ctx, client.Cell{Bench: "choleski", Threads: 16})
//	var ae *client.APIError
//	if errors.As(err, &ae) && ae.Suggestion != "" {
//	    // retry with ae.Suggestion ("cholesky")
//	}
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	speedupstack "repro"
	"repro/internal/service"
)

// Client talks to one speedupd server. The zero value is not usable; build
// one with New.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Mode selects the simulation fidelity, "exact" or "fast", or empty for
	// the server default (exact). Every simulating call sends it as ?mode=;
	// the server answers an unrecognized value, or an analysis that fast
	// mode cannot serve, with code "invalid_argument".
	Mode string
	// Retries is the number of extra attempts for idempotent GET requests
	// answered 429 (shed or rate-limited) or 503. Zero, the default,
	// disables retrying. Each retry waits the server's Retry-After when
	// the response carries one, otherwise an exponential backoff from
	// 100ms, with jitter either way; the request context bounds the total
	// wait. POSTs are never retried — a sweep or analyze could otherwise
	// run twice.
	Retries int
}

// New builds a Client for the server at baseURL (scheme and host, no
// trailing slash required).
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// addMode appends the client's Mode to a query, when set.
func (c *Client) addMode(q url.Values) url.Values {
	if c.Mode != "" {
		q.Set("mode", c.Mode)
	}
	return q
}

// APIError is one failed request: the HTTP status plus the service's error
// envelope. Responses that are not a JSON envelope (a plain text error
// line, a proxy page) still produce an APIError with the body as Message
// and an empty Code.
type APIError struct {
	StatusCode int
	// Code is the stable machine-readable identifier ("invalid_argument",
	// "unknown_benchmark", "unknown_parameter", ...).
	Code    string
	Message string
	// Suggestion is the machine-readable hint, when the service has one —
	// the nearest registered benchmark name on a 404.
	Suggestion string
}

// Error renders the failure with its code and status for logs.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("speedupd: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
	}
	return fmt.Sprintf("speedupd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Cell is one (workload, threads[, cores]) measurement — the argument of
// Stack, StackIntervals and WhatIf and the element of a Sweep batch: a
// registered benchmark by name, or an inline workload spec (exactly one of
// Bench and Spec). Cores 0 means cores = threads (the paper's pairing).
type Cell struct {
	Bench   string                 `json:"bench,omitempty"`
	Spec    *speedupstack.Workload `json:"spec,omitempty"`
	Threads int                    `json:"threads"`
	Cores   int                    `json:"cores,omitempty"`
}

// ValidateResult is the answer of Validate: a dry run of the spec pipeline.
// Valid=false comes with the actionable validation error; Valid=true with
// the canonical spec and its fingerprint (the cache key).
type ValidateResult = service.ValidateResponse

// Benchmarks lists the registered benchmark analogues.
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var resp struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := c.call(ctx, "/v1/benchmarks", nil, "", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Benchmarks, nil
}

// measure sends one single-cell measurement and decodes the answer into v.
// A named cell is a GET of path with the cell in the query; an inline spec
// is a POST to /v1/workloads/analyze with the cell as the body. intervals,
// when positive, asks for the time-resolved form.
func (c *Client) measure(ctx context.Context, path string, cell Cell, intervals int, v any) error {
	if cell.Spec != nil {
		return c.call(ctx, "/v1/workloads/analyze", c.addMode(url.Values{}), jsonType, struct {
			Cell
			Intervals int `json:"intervals,omitempty"`
		}{cell, intervals}, v)
	}
	q := url.Values{"bench": {cell.Bench}, "threads": {strconv.Itoa(cell.Threads)}}
	if cell.Cores != 0 {
		q.Set("cores", strconv.Itoa(cell.Cores))
	}
	if intervals != 0 {
		q.Set("intervals", strconv.Itoa(intervals))
	}
	return c.call(ctx, path, c.addMode(q), "", nil, v)
}

// Stack measures one cell end to end.
func (c *Client) Stack(ctx context.Context, cell Cell) (speedupstack.StackRow, error) {
	var rows []speedupstack.StackRow
	if err := c.measure(ctx, "/v1/stack", cell, 0, &rows); err != nil {
		return speedupstack.StackRow{}, err
	}
	if len(rows) != 1 {
		return speedupstack.StackRow{}, fmt.Errorf("speedupd: %d rows for one cell", len(rows))
	}
	return rows[0], nil
}

// StackIntervals measures one cell time-resolved: the run split into
// intervals equal slices (0 means the server default,
// speedupstack.DefaultIntervals).
func (c *Client) StackIntervals(ctx context.Context, cell Cell, intervals int) (speedupstack.TimeSeriesReport, error) {
	// A spec cell's POST body has no default: absent means the aggregate.
	if intervals == 0 && cell.Spec != nil {
		intervals = speedupstack.DefaultIntervals
	}
	var rep speedupstack.TimeSeriesReport
	err := c.measure(ctx, "/v1/stack/intervals", cell, intervals, &rep)
	return rep, err
}

// Sweep measures a batch of cells in one engine pass, deduplicated against
// each other and the server's cache.
func (c *Client) Sweep(ctx context.Context, cells []Cell) ([]speedupstack.StackRow, error) {
	var rows []speedupstack.StackRow
	err := c.call(ctx, "/v1/sweep", c.addMode(url.Values{}), jsonType, map[string]any{"cells": cells}, &rows)
	return rows, err
}

// AnalyzeTrace uploads a recorded binary op trace (the speedup-stack
// -record format, written by speedupstack.RecordTrace) and measures its
// replay. The trace replays at its recorded thread count; cores 0 means
// cores = threads. Re-uploading the same trace is a server-side cache hit —
// the replay is memoized under the trace's content hash.
func (c *Client) AnalyzeTrace(ctx context.Context, tr io.Reader, cores int) (speedupstack.StackRow, error) {
	q := url.Values{}
	if cores != 0 {
		q.Set("cores", strconv.Itoa(cores))
	}
	var rows []speedupstack.StackRow
	if err := c.call(ctx, "/v1/traces/analyze", c.addMode(q), "application/octet-stream", tr, &rows); err != nil {
		return speedupstack.StackRow{}, err
	}
	if len(rows) != 1 {
		return speedupstack.StackRow{}, fmt.Errorf("speedupd: %d rows for one trace", len(rows))
	}
	return rows[0], nil
}

// Validate dry-runs the spec pipeline on raw spec JSON without simulating.
// An invalid spec is a clean ValidateResult{Valid: false, Error: ...}, not
// an APIError.
func (c *Client) Validate(ctx context.Context, specJSON []byte) (ValidateResult, error) {
	var resp ValidateResult
	err := c.call(ctx, "/v1/workloads/validate", nil, jsonType, bytes.NewReader(specJSON), &resp)
	return resp, err
}

// Advise runs the scaling advisor: a memoized thread sweep up to maxThreads
// (0 means the server default, speedupstack.DefaultThreads), Amdahl and USL
// fits, the classification, the serial-fraction cross-check and ranked
// recommendations.
func (c *Client) Advise(ctx context.Context, bench string, maxThreads int) (speedupstack.Advice, error) {
	q := url.Values{"bench": {bench}}
	if maxThreads != 0 {
		q.Set("max_threads", strconv.Itoa(maxThreads))
	}
	var a speedupstack.Advice
	err := c.call(ctx, "/v1/advise", c.addMode(q), "", nil, &a)
	return a, err
}

// WhatIf runs the causal what-if engine on one cell: each applicable
// catalog intervention's predicted speedup gain, validated by re-simulating
// the mutated workload/machine, ranked by predicted gain. interventions
// selects catalog entries by ID (nil means the full catalog); an unknown ID
// is a 404 *APIError with code "unknown_intervention" and the nearest
// catalog ID as Suggestion.
func (c *Client) WhatIf(ctx context.Context, cell Cell, interventions []string) (speedupstack.WhatIfReport, error) {
	var rep speedupstack.WhatIfReport
	err := c.call(ctx, "/v1/whatif", c.addMode(url.Values{}), jsonType, struct {
		Cell
		Interventions []string `json:"interventions,omitempty"`
	}{cell, interventions}, &rep)
	return rep, err
}

// Healthz checks the liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	body, _, err := c.Raw(ctx, "/healthz", nil, "")
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(string(body)); got != "ok" {
		return fmt.Errorf("speedupd: healthz answered %q", got)
	}
	return nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, _, err := c.Raw(ctx, "/metrics", nil, "")
	return string(body), err
}

// Raw performs one GET and returns the raw body and its Content-Type — the
// escape hatch for non-JSON formats (?format=text|csv|svg). Error statuses
// still decode into *APIError.
func (c *Client) Raw(ctx context.Context, path string, query url.Values, accept string) ([]byte, string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, path, query, nil)
	if err != nil {
		return nil, "", err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return c.fetch(req)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// send issues req, retrying idempotent GETs up to Retries times on 429 and
// 503 — the statuses the service sheds load with. Anything else (other
// statuses, transport errors, non-GET methods) returns on the first
// attempt, so a sweep is never simulated twice by its own client.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	resp, err := c.httpClient().Do(req)
	if c.Retries <= 0 || req.Method != http.MethodGet {
		return resp, err
	}
	for attempt := 0; attempt < c.Retries; attempt++ {
		if err != nil ||
			(resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) {
			return resp, err
		}
		delay := retryDelay(resp, attempt)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
		resp, err = c.httpClient().Do(req)
	}
	return resp, err
}

// maxRetryAfter caps the Retry-After a server may ask for, in seconds (a
// day), so the wait cannot overflow a time.Duration; the request's context
// bounds the total wait in any case.
const maxRetryAfter = 24 * 60 * 60

// retryDelay picks the wait before retry number attempt: the server's
// Retry-After when the response names one, otherwise exponential backoff
// from 100ms, plus up to 50% random jitter so synchronized clients spread
// out instead of re-colliding.
func retryDelay(resp *http.Response, attempt int) time.Duration {
	base := time.Duration(100*(1<<attempt)) * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			base = time.Duration(min(secs, maxRetryAfter)) * time.Second
		}
	}
	return base + time.Duration(rand.Int63n(int64(base)/2+1))
}

// newRequest builds one request to path (with query, when not empty) on
// the client's server.
func (c *Client) newRequest(ctx context.Context, method, path string, query url.Values, body io.Reader) (*http.Request, error) {
	target := c.BaseURL + path
	if len(query) > 0 {
		target += "?" + query.Encode()
	}
	return http.NewRequestWithContext(ctx, method, target, body)
}

// jsonType is the Content-Type of every JSON request body.
const jsonType = "application/json"

// call sends one request to path and decodes the JSON answer into v. A nil
// body is a GET. Any other body is a POST typed contentType: an io.Reader
// is sent as is, anything else marshaled as JSON.
func (c *Client) call(ctx context.Context, path string, query url.Values, contentType string, body, v any) error {
	method, payload := http.MethodPost, io.Reader(nil)
	switch b := body.(type) {
	case nil:
		method = http.MethodGet
	case io.Reader:
		payload = b
	default:
		data, err := json.Marshal(b)
		if err != nil {
			return fmt.Errorf("speedupd: encoding request: %w", err)
		}
		payload = bytes.NewReader(data)
	}
	req, err := c.newRequest(ctx, method, path, query, payload)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	data, _, err := c.fetch(req)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("speedupd: decoding response: %v", err)
	}
	return nil
}

// fetch runs one request and returns the response body and its
// Content-Type, mapping error statuses to *APIError. A body over
// service.MaxReplyBytes is an error, whatever the status.
func (c *Client) fetch(req *http.Request) ([]byte, string, error) {
	resp, err := c.send(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := service.ReadReply(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, "", fmt.Errorf("speedupd: %w", err)
	}
	if resp.StatusCode >= 400 {
		return nil, "", decodeAPIError(resp.StatusCode, body)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// decodeAPIError lifts an error response into *APIError: the structured
// envelope when the body is one, the raw body as the message otherwise
// (text-format errors, intermediaries).
func decodeAPIError(status int, body []byte) *APIError {
	var env service.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Message != "" {
		return &APIError{StatusCode: status, Code: env.Error.Code,
			Message: env.Error.Message, Suggestion: env.Error.Suggestion}
	}
	msg := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(string(body)), "error:"))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &APIError{StatusCode: status, Message: strings.TrimSpace(msg)}
}
