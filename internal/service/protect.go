package service

import (
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Protection for the simulating endpoints (the protected rows of the route
// table): admission control bounds the
// number of requests concurrently occupying the simulation path, and an
// optional per-client token bucket bounds each caller's request rate. Both
// answer a fast 429 with a Retry-After header and the uniform error
// envelope instead of queueing unboundedly — under fleet load, shedding
// early is what keeps the latency of admitted requests flat.

// HopHeader marks a request forwarded once by a fleet peer (see
// internal/fleet). The service recognizes it in one place: hop-marked
// requests bypass the per-client rate limiter (the client was already
// accounted on the node that accepted the request from the outside world)
// but still count against admission — each node protects its own
// simulation capacity.
const HopHeader = "X-Speedupd-Fleet-Hop"

// RowsHeader asks for a reply's aggregate report as its exact rows
// (stack.FormatRows) instead of the negotiated format, which still decides
// how an error is written. A fleet hop sets it when Identify gives the
// request Rows; on any other row the answer is a 500 encode_failed.
const RowsHeader = "X-Speedupd-Fleet-Rows"

// admission counts the requests inside the protected routes. The one
// counter is both the gauge /metrics reads and, when limit is positive, the
// gate: it moves by compare-and-swap, so a request is shed only when limit
// requests are really in.
type admission struct {
	limit int64 // 0 or less: unbounded
	n     atomic.Int64
}

// acquire admits one request without blocking; false means the server is
// at its bound and the request should be shed.
func (a *admission) acquire() bool {
	for n := a.n.Load(); a.limit <= 0 || n < a.limit; n = a.n.Load() {
		if a.n.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// release lets one admitted request out.
func (a *admission) release() { a.n.Add(-1) }

// rateLimiter is a lazy per-client token bucket: rate tokens per second
// refill up to burst, max(1, ceil(rate)), one token per request. Clients are
// keyed by IP; the map never holds more than maxRateClients buckets (prune).
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

const maxRateClients = 4096

func newRateLimiter(rate float64) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	return &rateLimiter{rate: rate, burst: max(1, math.Ceil(rate)), buckets: make(map[string]*bucket)}
}

// allow spends one token for key, refilling by elapsed wall time. ok=false
// comes with the duration after which a token will be available — the
// Retry-After hint.
func (l *rateLimiter) allow(key string, now time.Time) (retryAfter time.Duration, ok bool) {
	if l == nil {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[key]
	if !found {
		if len(l.buckets) >= maxRateClients {
			l.prune(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / l.rate * float64(time.Second)), false
}

// prune makes room for one more client; called under mu when the map is at
// its bound. Buckets idle long enough to be full again are dropped, which
// forgets nothing. If that frees no room — every client is active — the
// bucket seen longest ago is evicted and its client restarts with a full
// burst: under more than maxRateClients simultaneous clients the limiter
// degrades to admitting above the configured rate, not to unbounded memory.
func (l *rateLimiter) prune(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	var oldest string
	var oldestLast time.Time
	for k, b := range l.buckets {
		if now.Sub(b.last) >= idle {
			delete(l.buckets, k)
		} else if oldestLast.IsZero() || b.last.Before(oldestLast) {
			oldest, oldestLast = k, b.last
		}
	}
	if len(l.buckets) >= maxRateClients {
		delete(l.buckets, oldest)
	}
}

// clientKey identifies the caller for rate limiting: the connection's
// remote IP.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit passes one request to a protected route through the rate limiter
// and the admission gate; the caller releases the admission when the
// request is done. Order matters: a rate-limited client is rejected before
// it can be admitted.
func (s *Server) admit(r *http.Request) *apiError {
	if r.Header.Get(HopHeader) == "" {
		if retry, ok := s.limiter.allow(clientKey(r), time.Now()); !ok {
			s.rateLimited.Add(1)
			return &apiError{Status: http.StatusTooManyRequests, Code: codeRateLimited,
				Message:    "per-client rate limit exceeded",
				RetryAfter: int(math.Ceil(retry.Seconds()))}
		}
	}
	if !s.adm.acquire() {
		s.shed.Add(1)
		return &apiError{Status: http.StatusTooManyRequests, Code: codeOverloaded,
			Message:    "server is at its concurrent-request bound; retry shortly",
			RetryAfter: 1}
	}
	return nil
}
