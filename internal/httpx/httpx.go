// Package httpx is the resilience layer between the mining pipeline and the
// remote services it hammers. The paper's Fig. 4 data-collection stage issues
// one ExploreSegments call per grid cell and one elevation-profile call per
// segment — thousands of requests per sweep — so every client request goes
// through one retry loop, a Pool's (pool.go): per-attempt timeouts, bounded
// retries with exponential backoff and jitter by round (honoring
// Retry-After), an optional token-bucket rate limiter, and a circuit
// breaker per endpoint. A Pool routes over N replicas of a service; a
// single address is a pool of one, and a Client puts a pool of one behind
// the same Do contract as *http.Client.
//
// A FaultTripper (fault.go) injects seeded error/latency/status schedules at
// the http.RoundTripper seam, so every failure path is testable hermetically
// against the in-process elevsvc and segments servers.
package httpx

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Doer is the slice of *http.Client the service clients need. Both
// *http.Client and *Client satisfy it, so call sites choose their resilience
// by picking which one they hand to a constructor.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// Policy bounds the retry loop.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first.
	// Values below 1 behave as 1.
	MaxAttempts int
	// PerAttemptTimeout bounds each individual attempt via a derived
	// context; 0 disables it (the request context still applies).
	PerAttemptTimeout time.Duration
	// BaseDelay is the backoff once a first round of attempts (one per
	// endpoint) has failed; each further round multiplies it by
	// Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter] to
	// decorrelate concurrent workers' retry storms. 0 disables it.
	Jitter float64
}

// RetryableStatus reports whether an HTTP status is worth retrying:
// 429 Too Many Requests and every 5xx.
func RetryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || (code >= 500 && code <= 599)
}

// Client is a single-address client behind the Doer interface: a pool of
// one whose endpoint has no base URL of its own, so each request goes to
// its own URL through the pool's retry loop. The zero value is not usable;
// construct with NewClient.
type Client struct {
	pool *Pool
}

// NewClient builds a resilient client over base, starting from the pool
// defaults (DefaultPoolPolicy, an 8-failure/3 s breaker) that opts may
// override. A nil base gets an *http.Client with a 30 s overall timeout, so
// even a misconfigured caller can never hang forever on a dead server.
func NewClient(base Doer, opts ...PoolOption) *Client {
	return &Client{pool: newPool([]string{""}, append([]PoolOption{WithPoolTransport(base)}, opts...))}
}

// Do issues the request through the pool's retry loop, retrying transport
// errors and retryable statuses (429/5xx) up to Policy.MaxAttempts.
// Requests with a non-replayable body (Body set but GetBody nil) get
// exactly one attempt. On a retryable status that survives every attempt
// the final response is returned unconsumed, so callers can map it to their
// own error types; on a transport error that survives every attempt the
// last error is returned wrapped.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	return c.pool.do(req.Context(), 0, req, "")
}

// retryAfter parses a Retry-After header as either delta-seconds or an HTTP
// date; 0 means absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// cancelBody releases the per-attempt context when the response body is
// closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
