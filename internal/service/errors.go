package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/exp"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Every /v1 endpoint answers failures with one structured envelope:
//
//	{"error": {"code": "...", "message": "...", "suggestion": "..."}}
//
// code is a stable machine-readable identifier (the set below), message the
// human-readable explanation, and suggestion an optional machine-readable
// hint — today the nearest registered benchmark name on a 404. Clients that
// negotiated the text format get a single plain "error: ..." line instead;
// every other format (including SVG and CSV, where an error document would
// be unparseable anyway) gets the JSON envelope.

// Error codes of the /v1 surface. They are part of the API contract: new
// codes may be added, existing ones never change meaning.
const (
	codeInvalidArgument     = "invalid_argument"
	codeUnknownParameter    = "unknown_parameter"
	codeUnknownBenchmark    = "unknown_benchmark"
	codeUnknownIntervention = "unknown_intervention"
	codeMethodNotAllowed    = "method_not_allowed"
	codeSimTimeout          = "sim_timeout"
	codeRequestCanceled     = "request_canceled"
	codeSimFailed           = "sim_failed"
	codeEncodeFailed        = "encode_failed"
	codeOverloaded          = "overloaded"
	codeRateLimited         = "rate_limited"
)

// apiError is one failed request: the HTTP status, the envelope fields, and
// nothing else — handlers construct it, writeError renders it once.
type apiError struct {
	Status     int
	Code       string
	Message    string
	Suggestion string
	// RetryAfter, in seconds, becomes the Retry-After header on 429s —
	// the client's backoff hint (client.Client honors it when retries are
	// enabled).
	RetryAfter int
}

// ErrorEnvelope is the wire form of an apiError, the one declaration the
// service writes and the client reads.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's content.
type ErrorBody struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

// envelope is e's wire form.
func (e *apiError) envelope() ErrorEnvelope {
	return ErrorEnvelope{Error: ErrorBody{Code: e.Code, Message: e.Message, Suggestion: e.Suggestion}}
}

// within prefixes e's message with the label of the call or cell it is
// about, when there is one: "cell 3: threads must be ...".
func (e *apiError) within(label string) *apiError {
	if label != "" {
		e.Message = label + ": " + e.Message
	}
	return e
}

// badRequest builds a 400 invalid_argument error.
func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: codeInvalidArgument,
		Message: fmt.Sprintf(format, args...)}
}

// asAPIError maps any error onto an apiError: typed lookup failures become
// 404s carrying their machine-readable suggestion, and everything else is a
// 400 with the error's own message (the callers here only funnel
// request-shape errors through this path).
func asAPIError(err error) *apiError {
	var lookup *workload.LookupError
	if errors.As(err, &lookup) {
		// A well-formed request for a benchmark or a what-if intervention
		// that does not exist is a missing resource, not a malformed
		// request: 404, with the nearest known name as the suggestion.
		code := codeUnknownBenchmark
		if lookup.Sentinel == whatif.ErrUnknownIntervention {
			code = codeUnknownIntervention
		}
		return &apiError{Status: http.StatusNotFound, Code: code,
			Message: lookup.Error(), Suggestion: lookup.Suggestion}
	}
	return badRequest("%v", err)
}

// simAPIError maps a failed engine call onto an apiError. The engine judges
// every request rule the parse step does not: a refusal (*exp.RequestError)
// is a 400 and a failed name or ID lookup (*workload.LookupError) a 404,
// both through asAPIError with the engine's own message, and so is a bad
// trace replay (workload.ErrBadTrace). Timeouts are the gateway's fault
// (504), cancellations the client's (499-style 408), and anything else a 500.
func (s *Server) simAPIError(err error) *apiError {
	var refused *exp.RequestError
	var lookup *workload.LookupError
	switch {
	case errors.As(err, &refused), errors.As(err, &lookup), errors.Is(err, workload.ErrBadTrace):
		return asAPIError(err)
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Code: codeSimTimeout,
			Message: fmt.Sprintf("simulation exceeded the %s limit", s.simTimeout)}
	case errors.Is(err, context.Canceled):
		return &apiError{Status: http.StatusRequestTimeout, Code: codeRequestCanceled,
			Message: "request canceled"}
	default:
		return &apiError{Status: http.StatusInternalServerError, Code: codeSimFailed,
			Message: fmt.Sprintf("simulation failed: %v", err)}
	}
}

// writeError renders an apiError in the request's negotiated format: a
// plain "error: ..." line for text clients, the JSON envelope for everyone
// else. Negotiation failures (the error being reported may itself be a bad
// ?format=) fall back to the envelope.
func writeError(w http.ResponseWriter, r *http.Request, e *apiError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	f, nerr := stack.NegotiateFormat(query(r.URL.RawQuery).get("format"), r.Header.Get("Accept"), stack.FormatJSON)
	if nerr == nil && f == stack.FormatText {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(e.Status)
		fmt.Fprintf(w, "error: %s\n", e.Message)
		return
	}
	writeJSON(w, e.Status, e.envelope())
}
