package httpx

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (wrapped) by Pool.Get and Client.Do when every
// endpoint's breaker is refusing attempts. Callers can errors.Is against it
// to distinguish fail-fast rejections from real transport failures.
var ErrCircuitOpen = errors.New("circuit breaker open")

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a consecutive-failure circuit breaker. Closed, it admits
// everything; after threshold consecutive failures it opens and rejects
// attempts outright for the cooldown period; then it half-opens, admitting a
// single probe whose outcome either re-closes or re-opens the circuit.
// A nil *Breaker admits everything.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	state     breakerState
	openedAt  time.Time
	now       func() time.Time
}

// NewBreaker creates a breaker that opens after threshold consecutive
// failures and stays open for cooldown. threshold below 1 behaves as 1.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether an attempt may proceed: nil to go ahead,
// ErrCircuitOpen to fail fast. Moving from open to half-open happens here,
// on the first attempt after the cooldown elapses.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return nil
		}
		return ErrCircuitOpen
	default: // half-open: one probe is already in flight
		return ErrCircuitOpen
	}
}

// Ready is the read-only admission hint: true when Allow would plausibly
// admit an attempt right now — closed, or open with the cooldown elapsed —
// and false while open-and-cooling or while a half-open probe is in
// flight. Selection loops (the endpoint pool) filter candidates on Ready
// and call Allow only on the endpoint they actually picked, so scanning
// candidates never consumes the half-open probe slot. A nil breaker is
// always ready.
func (b *Breaker) Ready() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.now().Sub(b.openedAt) >= b.cooldown
	default:
		return false
	}
}

// State reports the breaker's current state as "closed", "open", or
// "half-open" — exposed so checkpoint metadata and shutdown summaries can
// record transport health. A nil breaker reports "closed".
func (b *Breaker) State() string {
	if b == nil {
		return "closed"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// abandon hands back a half-open probe slot whose attempt ended because
// its caller gave up, which says nothing about the endpoint: the breaker
// returns to open with its cooldown already elapsed, so the next attempt
// probes. Nothing but an outcome or this moves a breaker out of half-open.
func (b *Breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// Record feeds an attempt outcome back into the breaker.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
	case breakerHalfOpen:
		if success {
			b.state = breakerClosed
			b.failures = 0
		} else {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
	case breakerOpen:
		// Stale outcome from an attempt admitted before the trip; the
		// circuit is already open, nothing to update.
	}
}
