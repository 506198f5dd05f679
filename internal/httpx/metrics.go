package httpx

import (
	"elevprivacy/internal/obs"
)

// Telemetry: WithPoolMetrics fits a pool (or a Client, a pool of one) with
// handles into the process-wide obs registry, so a live sweep's retry
// storms, breaker trips, rate-limiter stalls, balance, failovers and
// per-shard health are visible on /metrics while they happen
// (Pool.Stats() remains the end-of-run snapshot). Whatever the endpoint
// count, it publishes two families. Service level:
//
//	elevpriv_httpx_requests_total{service=...}          Get/Do calls
//	elevpriv_httpx_attempts_total{service=...}          individual tries
//	elevpriv_httpx_retries_total{service=...}           attempts after the first
//	elevpriv_httpx_breaker_rejected_total{service=...}  fail-fast refusals
//	elevpriv_httpx_exhausted_retries_total{service=...} budgets burned
//	elevpriv_httpx_attempt_seconds{service=...}         per-attempt latency
//	elevpriv_httpx_limiter_wait_seconds{service=...}    rate-limiter stalls
//	elevpriv_pool_failovers_total{service=...}          attempts moved to another endpoint
//
// Endpoint level:
//
//	elevpriv_pool_requests_total{service=...,endpoint=...}   attempts issued
//	elevpriv_pool_failures_total{service=...,endpoint=...}   failed attempts
//	elevpriv_pool_in_flight{service=...,endpoint=...}        live requests
//	elevpriv_pool_endpoint_healthy{service=...,endpoint=...} 1 up, 0 down
//	elevpriv_pool_breaker_state{service=...,endpoint=...}    0 closed, 1 half-open, 2 open
type poolMetrics struct {
	requests        *obs.Counter
	attempts        *obs.Counter
	retries         *obs.Counter
	breakerRejected *obs.Counter
	exhausted       *obs.Counter
	failovers       *obs.Counter
	attemptSeconds  *obs.Histogram
	limiterWait     *obs.Histogram

	// Per endpoint, indexed like Pool.endpoints.
	epRequests   []*obs.Counter
	failures     []*obs.Counter
	inFlight     []*obs.Gauge
	healthy      []*obs.Gauge
	breakerState []*obs.Gauge
}

// newPoolMetrics resolves every handle once at pool construction; the
// per-request cost stays a handful of atomic adds.
func newPoolMetrics(service string, endpoints []*Endpoint) *poolMetrics {
	label := `{service="` + service + `"}`
	m := &poolMetrics{
		requests:        obs.GetCounter("elevpriv_httpx_requests_total" + label),
		attempts:        obs.GetCounter("elevpriv_httpx_attempts_total" + label),
		retries:         obs.GetCounter("elevpriv_httpx_retries_total" + label),
		breakerRejected: obs.GetCounter("elevpriv_httpx_breaker_rejected_total" + label),
		exhausted:       obs.GetCounter("elevpriv_httpx_exhausted_retries_total" + label),
		failovers:       obs.GetCounter("elevpriv_pool_failovers_total" + label),
		attemptSeconds:  obs.GetHistogram("elevpriv_httpx_attempt_seconds"+label, nil),
		limiterWait:     obs.GetHistogram("elevpriv_httpx_limiter_wait_seconds"+label, nil),
	}
	for _, ep := range endpoints {
		label := `{service="` + service + `",endpoint="` + ep.base + `"}`
		m.epRequests = append(m.epRequests, obs.GetCounter("elevpriv_pool_requests_total"+label))
		m.failures = append(m.failures, obs.GetCounter("elevpriv_pool_failures_total"+label))
		m.inFlight = append(m.inFlight, obs.GetGauge("elevpriv_pool_in_flight"+label))
		healthy := obs.GetGauge("elevpriv_pool_endpoint_healthy" + label)
		healthy.Set(1) // endpoints start healthy
		m.healthy = append(m.healthy, healthy)
		m.breakerState = append(m.breakerState, obs.GetGauge("elevpriv_pool_breaker_state"+label))
	}
	return m
}

// breakerStateValue maps Breaker.State() strings onto the gauge scale.
func breakerStateValue(state string) float64 {
	switch state {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}
