package httpx

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elevprivacy/internal/obs"
)

func TestRecoverHandlerKeepsServerAlive(t *testing.T) {
	var logged atomic.Int32
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("handler exploded")
		}
		fmt.Fprint(w, "ok")
	}), ServerConfig{Logf: func(string, ...any) { logged.Add(1) }})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", resp.StatusCode)
	}
	if logged.Load() == 0 {
		t.Fatal("panic was not logged")
	}

	resp, err = http.Get(srv.URL + "/fine")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("server did not survive the panic: %d %q", resp.StatusCode, body)
	}
}

func TestHardenRequestTimeout(t *testing.T) {
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}), ServerConfig{RequestTimeout: 30 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request returned %d, want 503", resp.StatusCode)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not bound the request")
	}
}

func TestShedHandler429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		fmt.Fprint(w, "slow ok")
	}), ServerConfig{MaxInFlight: 1, RetryAfter: 1500 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the slot is taken

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q (1.5s rounded up)", ra, "2")
	}
	close(release)
	wg.Wait()
}

// TestClientHonorsShedRetryAfter closes the loop between the PR 2 client
// and this PR's load shedding: a shed 429 + Retry-After makes the retrying
// Client wait at least the hinted delay and then succeed.
func TestClientHonorsShedRetryAfter(t *testing.T) {
	var calls atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "at capacity", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "ok")
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var slept []time.Duration
	const service = "test_client_shed_retry_after"
	moved := counterDeltas(service, "requests", "attempts", "retries")
	c := NewClient(srv.Client(),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2}),
		WithPoolSleep(func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		}),
		WithPoolMetrics(service),
	)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body = %q", body)
	}
	if len(slept) != 1 || slept[0] < time.Second {
		t.Fatalf("client ignored Retry-After: slept %v", slept)
	}

	if got := moved(); !reflect.DeepEqual(got, []int64{1, 2, 1}) {
		t.Fatalf("requests, attempts, retries moved by %v, want 1 request, 2 attempts, 1 retry", got)
	}
}

// counterDeltas returns a func reporting how far each named
// elevpriv_httpx_<name>_total{service} counter has moved since this call;
// the obs registry outlives a test run, so tests compare with a baseline.
func counterDeltas(service string, names ...string) func() []int64 {
	read := func() []int64 {
		out := make([]int64, len(names))
		for i, n := range names {
			out[i] = obs.GetCounter("elevpriv_httpx_" + n + `_total{service="` + service + `"}`).Value()
		}
		return out
	}
	base := read()
	return func() []int64 {
		now := read()
		for i := range now {
			now[i] -= base[i]
		}
		return now
	}
}

func TestShedPressureHint(t *testing.T) {
	p := &shedPressure{base: 1, max: 3, perStep: 4}
	now := time.Unix(100, 0)
	want := []int{1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3} // caps at max
	for i, w := range want {
		if got := p.hint(now); got != w {
			t.Fatalf("shed %d: hint = %d, want %d", i+1, got, w)
		}
	}
	// A fresh window forgets the stampede.
	if got := p.hint(now.Add(2 * time.Second)); got != 1 {
		t.Fatalf("hint after window rollover = %d, want 1", got)
	}
}

// TestDynamicRetryAfterScalesWithShedRate pins the satellite contract: under
// a sustained stampede the shed hint grows past the base, and the retrying
// Client actually waits the grown hint out.
func TestDynamicRetryAfterScalesWithShedRate(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		fmt.Fprint(w, "ok")
	}), ServerConfig{
		MaxInFlight:       1,
		RetryAfter:        time.Second,
		DynamicRetryAfter: true,
		MaxRetryAfter:     30 * time.Second,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the slot is taken

	// A burst of sheds inside one window: with MaxInFlight=1 every shed is a
	// full capacity's worth, so each one grows the hint by a second.
	var last int
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("burst request %d returned %d, want 429", i, resp.StatusCode)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("burst request %d: Retry-After %q not an integer", i, resp.Header.Get("Retry-After"))
		}
		if secs < last {
			t.Fatalf("hint shrank under sustained overload: %d after %d", secs, last)
		}
		last = secs
	}
	if last <= 1 {
		t.Fatalf("hint never grew past the base: %d", last)
	}

	// The pooled client sees the grown hint and backs off by at least that
	// much before its successful retry.
	var slept []time.Duration
	var releaseOnce sync.Once
	c := NewClient(srv.Client(),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Minute, Multiplier: 2}),
		WithPoolSleep(func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			// Free the slot and wait for its holder to finish: the shedder
			// frees the slot before the holder's response is flushed, so
			// the retry is then admitted instead of racing the holder.
			releaseOnce.Do(func() { close(release) })
			wg.Wait()
			return ctx.Err()
		}),
	)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after release returned %d, want 200", resp.StatusCode)
	}
	wantAtLeast := time.Duration(last+1) * time.Second // the client's own shed grew the hint once more
	if len(slept) != 1 || slept[0] < wantAtLeast {
		t.Fatalf("client ignored the dynamic hint: slept %v, want >= %v", slept, wantAtLeast)
	}
	wg.Wait()
}

func TestHealthHandler(t *testing.T) {
	srv := httptest.NewServer(HealthHandler("test-svc"))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var hz struct {
		Status    string `json:"status"`
		Service   string `json:"service"`
		PID       int    `json:"pid"`
		StartUnix int64  `json:"start_unix"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz body %q not JSON: %v", body, err)
	}
	if hz.Status != "ok" || hz.Service != "test-svc" {
		t.Fatalf("healthz body = %q", body)
	}
	if hz.PID != os.Getpid() {
		t.Errorf("healthz pid = %d, want %d", hz.PID, os.Getpid())
	}
	if hz.StartUnix <= 0 || hz.StartUnix > time.Now().Unix() {
		t.Errorf("healthz start_unix = %d not a plausible process start", hz.StartUnix)
	}
}

// TestClientStatsBreakerState: a client's exhausted budget and its breaker
// refusals land in the service-level counters, and the per-endpoint gauge
// carries the breaker state.
func TestClientStatsBreakerState(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	const service = "test_client_breaker_state"
	moved := counterDeltas(service, "requests", "attempts", "exhausted_retries", "breaker_rejected")
	c := NewClient(srv.Client(),
		WithPoolPolicy(Policy{MaxAttempts: 2, BaseDelay: time.Microsecond}),
		WithPoolSleep(func(ctx context.Context, d time.Duration) error { return ctx.Err() }),
		WithPoolBreaker(2, time.Hour),
		WithPoolMetrics(service),
	)
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	state := obs.GetGauge(`elevpriv_pool_breaker_state{service="` + service + `",endpoint=""}`).Value()
	if state != breakerStateValue("open") {
		t.Fatalf("breaker state gauge = %v, want %v (open)", state, breakerStateValue("open"))
	}
	if got := moved(); !reflect.DeepEqual(got, []int64{1, 2, 1, 0}) {
		t.Fatalf("requests, attempts, exhausted, rejected moved by %v, want [1 2 1 0]", got)
	}

	// A second request is refused outright and counted, with no attempt.
	req2, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	if _, err := c.Do(req2); err == nil {
		t.Fatal("open breaker admitted a request")
	}
	if got := moved(); !reflect.DeepEqual(got, []int64{2, 2, 1, 1}) {
		t.Fatalf("requests, attempts, exhausted, rejected moved by %v, want [2 2 1 1]", got)
	}
}
