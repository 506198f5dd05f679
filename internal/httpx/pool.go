package httpx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elevprivacy/internal/obs"
)

// Multi-endpoint serving: a sharded tier runs N identical instances of a
// service, and the sweep-side client holds all N base URLs in a Pool.
// Requests route by consistent hash (shard keys from HashKey land on a
// stable owner, so each shard's in-process cache owns a slice of the key
// space), owners under pronounced load spill to the least-loaded endpoint,
// and an endpoint that dies mid-request is failed over transparently: the
// attempt is re-issued against the next shard on the ring, background
// /healthz probes mark the corpse down so new requests stop trying it, and
// its per-endpoint circuit breaker keeps the occasional probe cheap until
// the instance comes back. A single address is a pool of one, and so is a
// Client: the pool's loop (do) is the package's only retry loop.

// ErrNoEndpoints is returned (wrapped) by Pool.Get when every endpoint is
// refusing attempts (all circuit breakers open).
var ErrNoEndpoints = errors.New("no usable endpoint")

// NormalizeBaseURL canonicalizes a configured service address: trailing
// slashes are trimmed so clients can join "/v1/..." paths without producing
// "//" doubles. All service-client constructors run their base URLs through
// this.
func NormalizeBaseURL(base string) string {
	return strings.TrimRight(base, "/")
}

// Endpoint is one base URL inside a Pool, carrying the live state selection
// decisions read: in-flight count, health, breaker, and counters.
type Endpoint struct {
	base    string
	breaker *Breaker

	inFlight atomic.Int64
	requests atomic.Int64
	failures atomic.Int64
	// downSince is the unix-nano timestamp of the latest down mark (from a
	// transport error or a failed health probe); 0 means up. Marks expire
	// after the pool's downTTL so a recovered instance is re-admitted even
	// with background probing disabled — one optimistic retry either
	// refreshes the mark or clears it.
	downSince atomic.Int64
}

// up reports whether the endpoint counts as healthy: never marked down, or
// marked down longer than ttl ago (stale marks read as up so the endpoint
// gets its optimistic retry).
func (e *Endpoint) up(ttl time.Duration) bool {
	v := e.downSince.Load()
	return v == 0 || (ttl > 0 && time.Since(time.Unix(0, v)) >= ttl)
}

// EndpointStats is a point-in-time snapshot of one endpoint's state,
// exposed so run metadata and shutdown summaries can record per-shard
// transport health and balance.
type EndpointStats struct {
	BaseURL  string `json:"base_url"`
	Healthy  bool   `json:"healthy"`
	Breaker  string `json:"breaker"`
	InFlight int64  `json:"in_flight"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
}

// PoolOption configures a Pool, or a Client, which is a pool of one.
type PoolOption func(*Pool)

// WithPoolPolicy replaces the retry policy (default DefaultPoolPolicy).
// MaxAttempts bounds tries across all endpoints (not per endpoint);
// PerAttemptTimeout bounds each try; the backoff fields pace retries only
// once every endpoint has been tried in the current round — failing over
// to a fresh endpoint is immediate.
func WithPoolPolicy(p Policy) PoolOption { return func(pl *Pool) { pl.policy = p } }

// WithPoolTransport replaces the Doer attempts are issued through (default:
// an *http.Client with a 30 s timeout). Hand it a FaultTripper-backed
// client to test failover hermetically. The transport should not retry
// internally — the pool owns the retry/failover loop.
func WithPoolTransport(d Doer) PoolOption { return func(pl *Pool) { pl.doer = d } }

// WithPoolBreaker fits every endpoint with its own consecutive-failure
// circuit breaker (threshold failures, cooldown open period).
func WithPoolBreaker(threshold int, cooldown time.Duration) PoolOption {
	return func(pl *Pool) {
		pl.breakerThreshold, pl.breakerCooldown = threshold, cooldown
	}
}

// WithPoolHealthInterval sets the background /healthz probe period;
// 0 disables background checking (passive marking on transport errors
// still applies, but a down endpoint is then only re-admitted by its
// breaker's half-open probes). A one-endpoint pool never probes: a down
// mark cannot move traffic off its only endpoint.
func WithPoolHealthInterval(d time.Duration) PoolOption {
	return func(pl *Pool) { pl.healthEvery = d }
}

// WithPoolDownTTL overrides how long a passive down mark (from a transport
// error or failed probe) keeps an endpoint out of selection before it gets
// an optimistic retry (default 2 s; active probes refresh or clear marks
// sooner). 0 makes marks permanent until a probe clears them.
func WithPoolDownTTL(d time.Duration) PoolOption {
	return func(pl *Pool) { pl.downTTL = d }
}

// WithPoolSleep overrides how the retry loop waits between exhausted
// rounds; tests use it to capture delays instead of sleeping through them.
func WithPoolSleep(sleep func(context.Context, time.Duration) error) PoolOption {
	return func(pl *Pool) { pl.sleep = sleep }
}

// WithPoolJitterSeed fixes the backoff jitter RNG, making retry schedules
// reproducible.
func WithPoolJitterSeed(seed int64) PoolOption {
	return func(pl *Pool) { pl.rnd = rand.New(rand.NewSource(seed)) }
}

// WithPoolMetrics instruments the pool under the given service label in the
// process obs registry: the service-level elevpriv_httpx_* series and the
// per-endpoint elevpriv_pool_* series (metrics.go).
func WithPoolMetrics(service string) PoolOption {
	return func(pl *Pool) { pl.metricsService = service }
}

// WithPoolLimiter rate-limits attempts with a token bucket shared by every
// endpoint (nil means unlimited). Health probes do not spend its tokens.
func WithPoolLimiter(l *Limiter) PoolOption { return func(pl *Pool) { pl.limiter = l } }

// DefaultPoolPolicy is the retry policy NewPool and NewClient start from: 6
// attempts across endpoints (a 4-shard pool survives one dead shard with
// budget to spare), 10 s per attempt, and between exhausted rounds a 50 ms
// base delay doubling each round to a 2 s cap, ±20 % jitter.
func DefaultPoolPolicy() Policy {
	return Policy{
		MaxAttempts:       6,
		PerAttemptTimeout: 10 * time.Second,
		BaseDelay:         50 * time.Millisecond,
		MaxDelay:          2 * time.Second,
		Multiplier:        2,
		Jitter:            0.2,
	}
}

// DefaultHealthInterval is how often NewPool probes each endpoint's
// /healthz unless overridden.
const DefaultHealthInterval = 500 * time.Millisecond

// spillFactor bounds consistent-hash affinity under load: the ring owner is
// bypassed in favor of the least-loaded healthy endpoint when the owner's
// in-flight count exceeds spillFactor times the pool-wide average (plus
// one). 2.0 keeps affinity sticky — only a markedly slow or stuck shard
// sheds its keys.
const spillFactor = 2.0

// Pool is an address pool over N identical service instances: requests
// enter through Get with a shard key and come back from whichever endpoint
// the ring, the health state, and the load picked. Construct with NewPool;
// Close stops the background health probes.
type Pool struct {
	endpoints []*Endpoint
	ring      *Ring
	doer      Doer
	policy    Policy
	limiter   *Limiter
	sleep     func(context.Context, time.Duration) error

	healthEvery time.Duration
	downTTL     time.Duration

	breakerThreshold int
	breakerCooldown  time.Duration

	metricsService string
	metrics        *poolMetrics

	failovers atomic.Int64

	mu  sync.Mutex
	rnd *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewPool builds a pool over the given base URLs (trailing slashes are
// normalized away). Endpoints start healthy and, in a pool of two or more,
// are probed on DefaultHealthInterval; every endpoint gets its own circuit
// breaker (8 consecutive failures, 3 s cooldown) unless WithPoolBreaker
// overrides it. A single-URL pool behaves like a plain resilient client, so
// callers can hold a *Pool unconditionally.
func NewPool(baseURLs []string, opts ...PoolOption) (*Pool, error) {
	if len(baseURLs) == 0 {
		return nil, fmt.Errorf("httpx: pool needs at least one base URL")
	}
	bases := make([]string, 0, len(baseURLs))
	seen := make(map[string]bool, len(baseURLs))
	for _, base := range baseURLs {
		base = NormalizeBaseURL(base)
		if base == "" {
			return nil, fmt.Errorf("httpx: pool: empty base URL")
		}
		if seen[base] {
			return nil, fmt.Errorf("httpx: pool: duplicate base URL %s", base)
		}
		seen[base] = true
		bases = append(bases, base)
	}
	return newPool(bases, opts), nil
}

// newPool builds a pool over validated base URLs. A Client's pool holds one
// endpoint with an empty base, since each of its requests carries its own
// URL.
func newPool(bases []string, opts []PoolOption) *Pool {
	p := &Pool{
		ring:             NewRing(len(bases)),
		policy:           DefaultPoolPolicy(),
		sleep:            sleepContext,
		healthEvery:      DefaultHealthInterval,
		downTTL:          2 * time.Second,
		breakerThreshold: 8,
		breakerCooldown:  3 * time.Second,
		rnd:              rand.New(rand.NewSource(rand.Int63())),
		stop:             make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	if p.doer == nil {
		p.doer = &http.Client{Timeout: 30 * time.Second}
	}
	for _, base := range bases {
		p.endpoints = append(p.endpoints, &Endpoint{base: base, breaker: NewBreaker(p.breakerThreshold, p.breakerCooldown)})
	}
	if p.metricsService != "" {
		p.metrics = newPoolMetrics(p.metricsService, p.endpoints)
	}
	// pick falls through to a down endpoint when it is the only one, so a
	// pool of one has nothing to probe for.
	if p.healthEvery > 0 && len(p.endpoints) > 1 {
		for i := range p.endpoints {
			p.wg.Add(1)
			go p.healthLoop(i)
		}
	}
	return p
}

// Close stops the background health probes. Safe to call more than once
// and on a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Stats snapshots every endpoint's state in construction order.
func (p *Pool) Stats() []EndpointStats {
	out := make([]EndpointStats, len(p.endpoints))
	for i, ep := range p.endpoints {
		out[i] = EndpointStats{
			BaseURL:  ep.base,
			Healthy:  ep.up(p.downTTL),
			Breaker:  ep.breaker.State(),
			InFlight: ep.inFlight.Load(),
			Requests: ep.requests.Load(),
			Failures: ep.failures.Load(),
		}
	}
	return out
}

// Failovers reports how many attempts were re-issued against a different
// endpoint after a failure.
func (p *Pool) Failovers() int64 { return p.failovers.Load() }

// Get issues a GET for pathAndQuery (starting with "/") against the
// endpoint owning key, failing over along the ring when the owner is down,
// shedding, or circuit-open. Transport errors and retryable statuses
// (429/5xx) burn attempts up to the policy's MaxAttempts — counted across
// endpoints, so one dead shard costs a single attempt before the request
// lands elsewhere. Fresh endpoints are tried immediately; backoff only
// paces consecutive rounds over the same endpoints. On a retryable status
// that survives every attempt the final response is returned unconsumed;
// on a transport error the last error is returned wrapped.
func (p *Pool) Get(ctx context.Context, key uint64, pathAndQuery string) (*http.Response, error) {
	return p.do(ctx, key, nil, pathAndQuery)
}

// do is the retry loop behind Get and Client.Do. Each attempt is a clone of
// orig sent to orig's own URL when orig is set (a Client), and otherwise a
// GET for the picked endpoint's base URL plus pathAndQuery. A request whose
// body cannot be replayed gets a single attempt.
func (p *Pool) do(ctx context.Context, key uint64, orig *http.Request, pathAndQuery string) (*http.Response, error) {
	attempts := p.policy.MaxAttempts
	if attempts < 1 || (orig != nil && orig.Body != nil && orig.GetBody == nil) {
		attempts = 1
	}
	m := p.metrics
	if m != nil {
		m.requests.Inc()
	}
	tried := make([]bool, len(p.endpoints))
	triedCount, round, prev := 0, 0, -1
	attemptedThisRound := false
	var retryHint time.Duration // largest Retry-After seen this round

	var lastErr error
	for i := 0; ; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if triedCount == len(p.endpoints) {
			if !attemptedThisRound {
				// Every endpoint's breaker refused without a single try:
				// the whole tier is circuit-open, fail fast.
				if m != nil {
					m.breakerRejected.Inc()
				}
				return nil, fmt.Errorf("httpx: pool: %w: %w", ErrNoEndpoints, ErrCircuitOpen)
			}
			// Every endpoint failed this round: clear the slate and pace
			// the next round with backoff — stretched to the largest
			// Retry-After any shard sent, since uniform shedding means the
			// whole tier is saturated.
			for j := range tried {
				tried[j] = false
			}
			triedCount = 0
			attemptedThisRound = false
			delay := p.backoff(round)
			round++
			if retryHint > delay {
				delay = retryHint
				if p.policy.MaxDelay > 0 && delay > p.policy.MaxDelay {
					delay = p.policy.MaxDelay
				}
			}
			retryHint = 0
			if err := p.sleep(ctx, delay); err != nil {
				return nil, err
			}
		}
		if err := p.pace(ctx); err != nil {
			return nil, err
		}
		idx := p.pick(key, tried)
		if idx < 0 {
			// No untried endpoint is breaker-ready; charge the rest of the
			// round as refused and let the wrap-around logic decide.
			triedCount = len(p.endpoints)
			continue
		}
		tried[idx] = true
		triedCount++
		ep := p.endpoints[idx]
		if ep.breaker.Allow() != nil {
			// Lost the half-open probe slot to a concurrent request (or
			// the breaker re-opened since pick); move on without burning
			// an attempt.
			continue
		}
		attemptedThisRound = true
		if i > 0 {
			if m != nil {
				m.retries.Inc()
			}
			if idx != prev {
				p.failovers.Add(1)
				if m != nil {
					m.failovers.Inc()
				}
			}
		}
		i++
		prev = idx

		resp, err := p.attempt(ctx, ep, idx, orig, pathAndQuery)
		switch {
		case err != nil:
			// A dead parent context is the caller giving up, not the shard
			// failing: surface it without charging the endpoint, handing
			// back the half-open probe slot this attempt may hold.
			if ctxErr := ctx.Err(); ctxErr != nil {
				ep.breaker.abandon()
				return nil, ctxErr
			}
			// Transport error: the instance is likely gone. Mark it down
			// right away so concurrent requests stop picking it before the
			// next health probe lands.
			p.recordFailure(ep, idx)
			p.setHealthy(ep, idx, false)
			lastErr = err
			if i == attempts {
				if m != nil {
					m.exhausted.Inc()
				}
				return nil, fmt.Errorf("httpx: pool: %d attempts: %w", attempts, lastErr)
			}
		case RetryableStatus(resp.StatusCode):
			// A shedding or erroring shard: fail over to a fresh endpoint
			// immediately — its Retry-After only paces the round-wrap
			// backoff if every shard turns out to be shedding too.
			p.recordFailure(ep, idx)
			if i == attempts {
				if m != nil {
					m.exhausted.Inc()
				}
				return resp, nil
			}
			if ra := retryAfter(resp); ra > retryHint {
				retryHint = ra
			}
			drainClose(resp)
		default:
			ep.breaker.Record(true)
			p.observeEndpoint(ep, idx)
			return resp, nil
		}
	}
}

// pace takes a rate-limit token before an attempt, timing the wait only
// when the pool is instrumented.
func (p *Pool) pace(ctx context.Context) error {
	if p.limiter == nil {
		return nil
	}
	if p.metrics == nil {
		return p.limiter.Wait(ctx)
	}
	start := time.Now()
	err := p.limiter.Wait(ctx)
	p.metrics.limiterWait.ObserveSince(start)
	return err
}

// attempt issues one try against one endpoint under the per-attempt
// timeout, tracking the in-flight count the least-loaded selection reads.
// The derived context's cancel is tied to the response body so the
// connection is released when the caller closes it.
func (p *Pool) attempt(ctx context.Context, ep *Endpoint, idx int, orig *http.Request, pathAndQuery string) (*http.Response, error) {
	cancel := context.CancelFunc(func() {})
	if p.policy.PerAttemptTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.policy.PerAttemptTimeout)
	}
	req, err := newAttemptRequest(ctx, ep, orig, pathAndQuery)
	if err != nil {
		cancel()
		return nil, err
	}
	// Propagate the caller's span identity so the server can open a
	// parent-linked span: injected per attempt, so every retry's and
	// failover's server-side span links back to the same client span. Free
	// when tracing is off (no span in the context means no header).
	obs.InjectTraceHeader(ctx, req.Header)
	ep.requests.Add(1)
	ep.inFlight.Add(1)
	var start time.Time
	if p.metrics != nil {
		p.metrics.attempts.Inc()
		p.metrics.epRequests[idx].Inc()
		p.metrics.inFlight[idx].Add(1)
		start = time.Now()
	}
	resp, err := p.doer.Do(req)
	ep.inFlight.Add(-1)
	if p.metrics != nil {
		p.metrics.attemptSeconds.ObserveSince(start)
		p.metrics.inFlight[idx].Add(-1)
	}
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// newAttemptRequest builds one attempt's request: a clone of orig with its
// body rewound when orig is set, otherwise a GET for the endpoint's base URL
// plus pathAndQuery.
func newAttemptRequest(ctx context.Context, ep *Endpoint, orig *http.Request, pathAndQuery string) (*http.Request, error) {
	if orig == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.base+pathAndQuery, nil)
		if err != nil {
			return nil, fmt.Errorf("httpx: pool: building request: %w", err)
		}
		return req, nil
	}
	req := orig.Clone(ctx)
	if orig.GetBody != nil && orig.Body != nil {
		body, err := orig.GetBody()
		if err != nil {
			return nil, fmt.Errorf("httpx: rewinding body: %w", err)
		}
		req.Body = body
	}
	return req, nil
}

// pick selects the endpoint for key among those not yet tried this round:
// the ring owner when it is healthy, admitted by its breaker, and not
// overloaded; otherwise the next shard clockwise (stable failover — a
// key's backup cache is always the same shard); the least-loaded healthy
// endpoint when the owner is carrying more than spillFactor times the
// average in-flight load; and, when no endpoint is healthy, the
// least-loaded breaker-admitted endpoint regardless of health (marks can
// be stale — better one probe than certain failure). Returns -1 when every
// untried endpoint's breaker refuses.
func (p *Pool) pick(key uint64, tried []bool) int {
	usable := func(idx int) bool {
		return !tried[idx] && p.endpoints[idx].breaker.Ready()
	}
	owner := p.ring.OwnerExcluding(key, func(idx int) bool {
		return !usable(idx) || !p.endpoints[idx].up(p.downTTL)
	})
	if owner >= 0 && !p.overloaded(owner) {
		return owner
	}
	// Least-loaded healthy fallback (spill), then least-loaded regardless
	// of health marks.
	if idx := p.leastLoaded(tried, true); idx >= 0 {
		return idx
	}
	if owner >= 0 {
		return owner
	}
	return p.leastLoaded(tried, false)
}

// overloaded reports whether idx carries more than spillFactor times the
// pool-average in-flight load (plus slack of one request).
func (p *Pool) overloaded(idx int) bool {
	if len(p.endpoints) == 1 {
		return false
	}
	var total int64
	for _, ep := range p.endpoints {
		total += ep.inFlight.Load()
	}
	avg := float64(total) / float64(len(p.endpoints))
	return float64(p.endpoints[idx].inFlight.Load()) > spillFactor*avg+1
}

// leastLoaded returns the untried, breaker-admitted endpoint with the
// fewest in-flight requests (requiring a healthy mark when healthyOnly),
// or -1. Ties break on the lower index, keeping selection deterministic.
func (p *Pool) leastLoaded(tried []bool, healthyOnly bool) int {
	best := -1
	var bestLoad int64
	for idx, ep := range p.endpoints {
		if tried[idx] || !ep.breaker.Ready() {
			continue
		}
		if healthyOnly && !ep.up(p.downTTL) {
			continue
		}
		load := ep.inFlight.Load()
		if best < 0 || load < bestLoad {
			best, bestLoad = idx, load
		}
	}
	return best
}

// recordFailure charges one failed attempt to the endpoint.
func (p *Pool) recordFailure(ep *Endpoint, idx int) {
	ep.failures.Add(1)
	ep.breaker.Record(false)
	if p.metrics != nil {
		p.metrics.failures[idx].Inc()
	}
	p.observeEndpoint(ep, idx)
}

// setHealthy refreshes the endpoint's health mark, publishing the gauge: a
// down report stamps downSince (refreshing any earlier mark so the TTL
// restarts), an up report clears it.
func (p *Pool) setHealthy(ep *Endpoint, idx int, healthy bool) {
	if healthy {
		ep.downSince.Store(0)
	} else {
		ep.downSince.Store(time.Now().UnixNano())
	}
	if p.metrics != nil {
		if healthy {
			p.metrics.healthy[idx].Set(1)
		} else {
			p.metrics.healthy[idx].Set(0)
		}
	}
}

// observeEndpoint refreshes the endpoint's breaker-state gauge.
func (p *Pool) observeEndpoint(ep *Endpoint, idx int) {
	if p.metrics != nil {
		p.metrics.breakerState[idx].Set(breakerStateValue(ep.breaker.State()))
	}
}

// backoff returns the jittered exponential delay before round r+1, once
// round r (0-based) has failed on every endpoint: BaseDelay·Multiplier^r,
// spread by ±Jitter and capped at MaxDelay. For a pool of one a round is
// one attempt.
func (p *Pool) backoff(round int) time.Duration {
	pol := p.policy
	d := float64(pol.BaseDelay)
	if pol.Multiplier > 0 {
		d *= math.Pow(pol.Multiplier, float64(round))
	}
	if pol.Jitter > 0 {
		p.mu.Lock()
		f := p.rnd.Float64()
		p.mu.Unlock()
		d *= 1 + pol.Jitter*(2*f-1)
	}
	if pol.MaxDelay > 0 && d > float64(pol.MaxDelay) {
		d = float64(pol.MaxDelay)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// healthLoop probes one endpoint's health path until Close.
func (p *Pool) healthLoop(idx int) {
	defer p.wg.Done()
	ep := p.endpoints[idx]
	t := time.NewTicker(p.healthEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.setHealthy(ep, idx, p.probe(ep))
		}
	}
}

// probe issues one health check; any 2xx answer counts as alive. Probes go
// straight to the transport, so they spend no rate-limit tokens.
func (p *Pool) probe(ep *Endpoint) bool {
	timeout := p.healthEvery * 4
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.doer.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp)
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}
