package httpx

import (
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// processStart stamps /healthz with when this process came up, so a fleet
// scraper can tell a restarted instance from a long-lived one without any
// out-of-band configuration.
var processStart = time.Now()

// Server-side resilience: the elevation and segment services sit under
// sweeps that fan thousands of requests at them, so they need the mirror
// image of the client-side protections in this package — recover a
// panicking handler instead of dropping the connection, bound each
// request's wall clock, and shed load with 429 + Retry-After when too many
// requests are in flight (which the retrying Client on the other side
// honors).

// ServerConfig tunes Harden.
type ServerConfig struct {
	// MaxInFlight bounds concurrently served requests; excess requests are
	// shed with 429 and a Retry-After hint. 0 disables shedding.
	MaxInFlight int
	// RequestTimeout bounds one request's handling; 0 disables it.
	RequestTimeout time.Duration
	// RetryAfter is the hint attached to shed responses (rounded up to
	// whole seconds; minimum, and default, 1s). With DynamicRetryAfter it
	// is the base the pressure scaling starts from.
	RetryAfter time.Duration
	// DynamicRetryAfter derives the shed hint from live pressure instead
	// of a fixed value: the base hint grows with the shed rate observed in
	// the current one-second window, so a pooled client fleet backs off
	// proportionally to how overloaded the server actually is instead of
	// stampeding back in lockstep.
	DynamicRetryAfter bool
	// MaxRetryAfter caps the dynamic hint (default 30s).
	MaxRetryAfter time.Duration
	// Logf receives panic reports; nil discards them.
	Logf func(string, ...any)
}

// Harden wraps h with panic recovery, per-request timeout, and
// max-in-flight load shedding, outermost first — a shed request is rejected
// before it can tie up a handler slot or a timeout timer.
func Harden(h http.Handler, cfg ServerConfig) http.Handler {
	if cfg.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, cfg.RequestTimeout, "request timed out")
	}
	h = recoverHandler(h, cfg.Logf)
	if cfg.MaxInFlight > 0 {
		h = shedHandler(h, cfg)
	}
	return h
}

// recoverHandler converts a handler panic into a 500 (when the response has
// not started) and keeps the server alive either way.
func recoverHandler(h http.Handler, logf func(string, ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // deliberate connection abort, not a crash
				}
				if logf != nil {
					logf("httpx: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				}
				// Best effort: if the handler already wrote, this is a no-op
				// on the status line and the client sees a torn body.
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// shedHandler rejects requests beyond MaxInFlight with 429 + Retry-After.
// In dynamic mode the hint scales with the shed rate: when shedding is rare
// the hint stays at the base, and under a sustained stampede it grows
// toward MaxRetryAfter, spreading the fleet's retries out in time.
func shedHandler(h http.Handler, cfg ServerConfig) http.Handler {
	slots := make(chan struct{}, cfg.MaxInFlight)
	base := ceilSeconds(cfg.RetryAfter)
	var p *shedPressure
	if cfg.DynamicRetryAfter {
		maxSecs := ceilSeconds(cfg.MaxRetryAfter)
		if cfg.MaxRetryAfter <= 0 {
			maxSecs = 30
		}
		p = &shedPressure{base: base, max: maxSecs, perStep: cfg.MaxInFlight}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			h.ServeHTTP(w, r)
		default:
			secs := base
			if p != nil {
				secs = p.hint(time.Now())
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			http.Error(w, fmt.Sprintf("server at capacity (%d in flight)", cfg.MaxInFlight), http.StatusTooManyRequests)
		}
	})
}

// ceilSeconds rounds d up to whole seconds, minimum 1.
func ceilSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if d > time.Duration(secs)*time.Second {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shedPressure tracks sheds in the current one-second window and converts
// the count into a Retry-After hint: base seconds plus one second per
// perStep sheds (i.e. per full in-flight capacity's worth of rejected
// requests), capped at max.
type shedPressure struct {
	base, max, perStep int

	mu          sync.Mutex
	windowStart time.Time
	sheds       int
}

// hint records one shed at now and returns the seconds a client should
// wait before retrying.
func (p *shedPressure) hint(now time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if now.Sub(p.windowStart) >= time.Second {
		p.windowStart = now
		p.sheds = 0
	}
	p.sheds++
	step := p.perStep
	if step < 1 {
		step = 1
	}
	secs := p.base + p.sheds/step
	if secs > p.max {
		secs = p.max
	}
	return secs
}

// HealthHandler answers liveness probes with a tiny JSON body carrying the
// instance's identity: service name, pid, and process start time (sharded
// instances add shard/shards; see shardHealthHandler). Mount it at /healthz
// outside Harden so probes bypass load shedding.
func HealthHandler(name string) http.Handler {
	body := []byte(fmt.Sprintf("{\"status\":\"ok\",\"service\":%q,\"pid\":%d,\"start_unix\":%d}\n",
		name, os.Getpid(), processStart.Unix()))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})
}
