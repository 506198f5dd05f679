package httpx

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep replaces real backoff waits with a recorder so retry tests run in
// microseconds.
type noSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (n *noSleep) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	n.delays = append(n.delays, d)
	n.mu.Unlock()
	return nil
}

func get(t *testing.T, c *Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Do(req)
}

func TestRetriesTransientStatusThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()

	ns := &noSleep{}
	c := NewClient(srv.Client(), WithPoolSleep(ns.sleep), WithPoolJitterSeed(1))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "ok" {
		t.Errorf("body = %q", body)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	if len(ns.delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(ns.delays))
	}
	// Second delay comes from one more doubling (±20 % jitter).
	if ns.delays[1] < ns.delays[0] {
		t.Errorf("backoff not growing: %v then %v", ns.delays[0], ns.delays[1])
	}
}

func TestExhaustedRetriesReturnFinalResponse(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), WithPoolSleep((&noSleep{}).sleep))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502 surfaced to caller", resp.StatusCode)
	}
	if got := calls.Load(); got != int32(DefaultPoolPolicy().MaxAttempts) {
		t.Errorf("server saw %d calls, want %d", got, DefaultPoolPolicy().MaxAttempts)
	}
}

func TestNonRetryableStatusNotRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), WithPoolSleep((&noSleep{}).sleep))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Errorf("400 retried: server saw %d calls", calls.Load())
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	ns := &noSleep{}
	c := NewClient(srv.Client(), WithPoolSleep(ns.sleep),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Second, Multiplier: 2}))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ns.delays) != 1 || ns.delays[0] != 3*time.Second {
		t.Errorf("delays = %v, want exactly the 3s Retry-After", ns.delays)
	}
}

func TestRetryAfterCappedByMaxDelay(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	ns := &noSleep{}
	c := NewClient(srv.Client(), WithPoolSleep(ns.sleep),
		WithPoolPolicy(Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2}))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ns.delays) != 1 || ns.delays[0] != 2*time.Second {
		t.Errorf("delays = %v, want the 2s cap", ns.delays)
	}
}

func TestRetriesTransportError(t *testing.T) {
	boom := errors.New("connection reset by peer")
	ft := NewFaultTripper(nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	ft.Stub(MatchAll, Fault{Err: boom}, Fault{Err: boom})

	c := NewClient(&http.Client{Transport: ft}, WithPoolSleep((&noSleep{}).sleep))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ft.Calls() != 3 {
		t.Errorf("transport saw %d calls, want 3", ft.Calls())
	}
}

func TestExhaustedTransportErrorsWrapped(t *testing.T) {
	boom := errors.New("no route to host")
	ft := NewFaultTripper(nil)
	ft.Stub(MatchAll, Fault{Err: boom}, Fault{Err: boom}, Fault{Err: boom})

	c := NewClient(&http.Client{Transport: ft}, WithPoolSleep((&noSleep{}).sleep),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	_, err := get(t, c, "http://example.invalid/x")
	if err == nil {
		t.Fatal("want error after exhausted attempts")
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v in chain", err, boom)
	}
}

func TestPerAttemptTimeoutRecovers(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select { // hang well past the per-attempt deadline
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), WithPoolSleep((&noSleep{}).sleep),
		WithPoolPolicy(Policy{MaxAttempts: 2, PerAttemptTimeout: 50 * time.Millisecond, BaseDelay: time.Millisecond}))
	resp, err := get(t, c, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2 (timeout then success)", calls.Load())
	}
}

func TestCancelledContextStopsRetryLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewClient(srv.Client()) // real sleeps: cancellation must interrupt them
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	_, err := c.Do(req)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestNonReplayableBodySingleAttempt(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), WithPoolSleep((&noSleep{}).sleep))
	pr, pw := io.Pipe()
	go func() { _, _ = io.WriteString(pw, "x"); pw.Close() }()
	req, _ := http.NewRequest(http.MethodPost, srv.URL, pr)
	req.GetBody = nil // pipes are not replayable
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Errorf("non-replayable body retried: %d calls", calls.Load())
	}
}

func TestLimiterPacesRequests(t *testing.T) {
	l := NewLimiter(100, 1) // 1 token burst, 100/s refill => ~10ms per extra call
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("4 waits at 100/s burst 1 took %v, want >= ~30ms", elapsed)
	}
}

func TestLimiterBurstIsImmediate(t *testing.T) {
	l := NewLimiter(1, 5)
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("burst of 5 took %v, want immediate", elapsed)
	}
}

func TestLimiterCancelledWait(t *testing.T) {
	l := NewLimiter(0.1, 1) // next token in 10s
	ctx := context.Background()
	if err := l.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := l.Wait(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestNilLimiterAndBreakerAreNoOps(t *testing.T) {
	var l *Limiter
	var b *Breaker
	if err := l.Wait(context.Background()); err != nil {
		t.Error(err)
	}
	if err := b.Allow(); err != nil {
		t.Error(err)
	}
	b.Record(false) // must not panic
}

func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	b := NewBreaker(3, time.Minute)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		b.Record(false)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after 3 failures Allow = %v, want ErrCircuitOpen", err)
	}

	clock = clock.Add(2 * time.Minute) // cooldown elapses -> half-open probe
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Error("second concurrent probe admitted in half-open state")
	}
	b.Record(true)
	if err := b.Allow(); err != nil {
		t.Errorf("breaker did not re-close after probe success: %v", err)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	b := NewBreaker(1, time.Minute)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	_ = b.Allow()
	b.Record(false) // trips
	clock = clock.Add(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatal("probe rejected")
	}
	b.Record(false) // probe fails -> open again, cooldown restarts
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Error("breaker closed after failed probe")
	}
	clock = clock.Add(time.Minute)
	if err := b.Allow(); err != nil {
		t.Error("breaker never half-opened again")
	}
}

func TestClientFailsFastWhenBreakerOpen(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), WithPoolSleep((&noSleep{}).sleep), WithPoolBreaker(2, time.Hour),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}))

	// First Do burns attempts until the breaker trips mid-loop.
	_, err := get(t, c, srv.URL)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen once tripped", err)
	}
	seen := calls.Load()
	if seen != 2 {
		t.Fatalf("server saw %d calls before trip, want 2", seen)
	}
	// Subsequent Do is rejected without touching the server at all.
	if _, err := get(t, c, srv.URL); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want fail-fast ErrCircuitOpen", err)
	}
	if calls.Load() != seen {
		t.Error("open breaker still let a request through")
	}
}

func TestFaultTripperSynthesizesStatusAndHeaders(t *testing.T) {
	ft := NewFaultTripper(nil)
	ft.Stub(MatchPath("/explore"), Fault{
		Status: http.StatusBadGateway,
		Body:   "upstream sad",
		Header: http.Header{"Retry-After": {"7"}},
	})
	req, _ := http.NewRequest(http.MethodGet, "http://example.invalid/explore", nil)
	resp, err := ft.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "upstream sad" {
		t.Errorf("body = %q", body)
	}
	if ft.Injected() != 1 {
		t.Errorf("injected = %d", ft.Injected())
	}
}

func TestFaultTripperScheduleExhaustsToPassthrough(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	ft := NewFaultTripper(nil)
	ft.Stub(MatchAll, Fault{Status: 503}, Fault{}) // one fault, one explicit passthrough
	hc := &http.Client{Transport: ft}
	for i := 0; i < 3; i++ {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2 (first was synthesized)", calls.Load())
	}
	if ft.Calls() != 3 || ft.Injected() != 1 {
		t.Errorf("calls/injected = %d/%d, want 3/1", ft.Calls(), ft.Injected())
	}
}

func TestFaultTripperLatencyRespectsContext(t *testing.T) {
	ft := NewFaultTripper(nil)
	ft.Stub(MatchAll, Fault{Delay: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.invalid/", nil)
	start := time.Now()
	_, err := ft.RoundTrip(req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("latency fault ignored context cancellation")
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	a := RandomFaults(7, 100, 0.3, Fault{Status: 503})
	b := RandomFaults(7, 100, 0.3, Fault{Status: 503})
	var faultsA, faultsB int
	for i := range a {
		if a[i].Status != b[i].Status {
			t.Fatalf("slot %d differs across same-seed schedules", i)
		}
		if a[i].Status != 0 {
			faultsA++
		}
		if b[i].Status != 0 {
			faultsB++
		}
	}
	if faultsA == 0 || faultsA == 100 {
		t.Errorf("degenerate schedule: %d faults out of 100", faultsA)
	}
}

// TestClientConcurrentUse drives one client from many goroutines through a
// flaky server with the limiter and breaker attached; run under -race this
// is the layer's thread-safety gate.
func TestClientConcurrentUse(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%5 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(),
		WithPoolPolicy(Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond, Multiplier: 2, Jitter: 0.5}),
		WithPoolLimiter(NewLimiter(10000, 100)),
		WithPoolBreaker(50, time.Millisecond))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
				if err != nil {
					continue
				}
				resp, err := c.Do(req)
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
