package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elevprivacy/internal/obs"
)

func TestNormalizeBaseURL(t *testing.T) {
	cases := map[string]string{
		"http://host:1234":    "http://host:1234",
		"http://host:1234/":   "http://host:1234",
		"http://host:1234///": "http://host:1234",
	}
	for in, want := range cases {
		if got := NormalizeBaseURL(in); got != want {
			t.Errorf("NormalizeBaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRingDeterministicOwners(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	for i := 0; i < 1000; i++ {
		key := HashKey("cell-" + strconv.Itoa(i))
		oa, ob := owner(a, key), owner(b, key)
		if oa != ob {
			t.Fatalf("key %d: owners differ across identical rings: %d vs %d", i, oa, ob)
		}
		if oa < 0 || oa >= 4 {
			t.Fatalf("key %d: owner %d out of range", i, oa)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(4)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[owner(r, HashKey("key-"+strconv.Itoa(i)))]++
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 || hi > 2*lo {
		t.Errorf("ring imbalance: per-shard counts %v (max > 2x min)", counts)
	}
}

func TestRingOwnerExcludingIsStable(t *testing.T) {
	r := NewRing(4)
	key := HashKey("some-grid-cell")
	owner := owner(r, key)
	skipOwner := func(idx int) bool { return idx == owner }
	backup := r.OwnerExcluding(key, skipOwner)
	if backup == owner || backup < 0 {
		t.Fatalf("backup = %d, owner = %d", backup, owner)
	}
	for i := 0; i < 10; i++ {
		if got := r.OwnerExcluding(key, skipOwner); got != backup {
			t.Fatalf("failover target not stable: %d then %d", backup, got)
		}
	}
	if got := r.OwnerExcluding(key, func(int) bool { return true }); got != -1 {
		t.Errorf("all-skipped OwnerExcluding = %d, want -1", got)
	}
}

// countingServers stands up n httptest servers whose handlers count
// requests, returning the servers, their base URLs, and the counters.
func countingServers(t *testing.T, n int) ([]*httptest.Server, []string, []*atomic.Int64) {
	t.Helper()
	srvs := make([]*httptest.Server, n)
	urls := make([]string, n)
	counts := make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		c := &atomic.Int64{}
		counts[i] = c
		srvs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			c.Add(1)
			_, _ = io.WriteString(w, "ok")
		}))
		urls[i] = srvs[i].URL
		t.Cleanup(srvs[i].Close)
	}
	return srvs, urls, counts
}

func poolGet(t *testing.T, p *Pool, key uint64, path string) *http.Response {
	t.Helper()
	resp, err := p.Get(context.Background(), key, path)
	if err != nil {
		t.Fatalf("pool.Get: %v", err)
	}
	return resp
}

func TestPoolSingleEndpoint(t *testing.T) {
	_, urls, counts := countingServers(t, 1)
	p, err := NewPool([]string{urls[0] + "/"}, WithPoolHealthInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	resp := poolGet(t, p, HashKey("k"), "/v1/thing")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" || counts[0].Load() != 1 {
		t.Errorf("body %q, count %d", body, counts[0].Load())
	}
}

func TestPoolRejectsEmptyAndDuplicate(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPool([]string{"http://a", "http://a/"}); err == nil {
		t.Error("duplicate base URLs accepted")
	}
}

func TestPoolKeyAffinity(t *testing.T) {
	_, urls, counts := countingServers(t, 4)
	p, err := NewPool(urls, WithPoolHealthInterval(0), WithPoolJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	key := HashKey("tile-N38W078")
	for i := 0; i < 20; i++ {
		resp := poolGet(t, p, key, "/v1/thing")
		drainClose(resp)
	}
	nonzero := 0
	for _, c := range counts {
		if c.Load() > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Errorf("one key spread over %d endpoints, want 1 (affinity)", nonzero)
	}
}

func TestPoolSpreadsDistinctKeys(t *testing.T) {
	_, urls, counts := countingServers(t, 4)
	p, err := NewPool(urls, WithPoolHealthInterval(0), WithPoolJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 400; i++ {
		resp := poolGet(t, p, HashKey("cell-"+strconv.Itoa(i)), "/v1/thing")
		drainClose(resp)
	}
	lo, hi := counts[0].Load(), counts[0].Load()
	for _, c := range counts[1:] {
		n := c.Load()
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == 0 || hi > 2*lo {
		t.Errorf("per-endpoint counts %v, want balance within 2x",
			[]int64{counts[0].Load(), counts[1].Load(), counts[2].Load(), counts[3].Load()})
	}
}

func TestPoolFailsOverFromDeadEndpoint(t *testing.T) {
	srvs, urls, counts := countingServers(t, 4)
	p, err := NewPool(urls, WithPoolHealthInterval(0), WithPoolJitterSeed(1),
		WithPoolSleep((&noSleep{}).sleep))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Find a key owned by endpoint 2, then kill that endpoint.
	var key uint64
	for i := 0; ; i++ {
		key = HashKey("cell-" + strconv.Itoa(i))
		if owner(p.ring, key) == 2 {
			break
		}
	}
	srvs[2].Close()

	resp := poolGet(t, p, key, "/v1/thing")
	drainClose(resp)
	if p.Failovers() == 0 {
		t.Error("no failover recorded for a dead owner")
	}
	if counts[2].Load() != 0 {
		t.Error("dead endpoint served a request")
	}
	st := p.Stats()
	if st[2].Healthy {
		t.Error("dead endpoint still marked healthy after transport error")
	}
	if st[2].Failures == 0 {
		t.Error("dead endpoint has no recorded failures")
	}
	// The key keeps working (routed to its stable backup) on later calls.
	resp = poolGet(t, p, key, "/v1/thing")
	drainClose(resp)
}

func TestPoolBreakerOpensThenRecovers(t *testing.T) {
	_, urls, counts := countingServers(t, 2)
	ft := NewFaultTripper(nil)
	boom := errors.New("connection refused")
	// Endpoint 0 is dark for its first 3 requests, then recovers.
	ft.Stub(func(r *http.Request) bool { return "http://"+r.URL.Host == urls[0] },
		Fault{Err: boom}, Fault{Err: boom}, Fault{Err: boom})

	p, err := NewPool(urls,
		WithPoolTransport(&http.Client{Transport: ft}),
		WithPoolHealthInterval(0),
		WithPoolDownTTL(time.Millisecond),
		WithPoolBreaker(2, 30*time.Millisecond),
		WithPoolJitterSeed(1),
		WithPoolSleep((&noSleep{}).sleep),
		WithPoolPolicy(Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Multiplier: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var key0 uint64
	for i := 0; ; i++ {
		key0 = HashKey("k-" + strconv.Itoa(i))
		if owner(p.ring, key0) == 0 {
			break
		}
	}

	// Every Get succeeds via failover while endpoint 0 burns through its
	// fault queue; the short down TTL keeps re-admitting the owner until its
	// breaker opens at two consecutive failures.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats()[0].Breaker != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened (failures=%d, injected=%d)",
				p.Stats()[0].Failures, ft.Injected())
		}
		resp := poolGet(t, p, key0, "/x")
		drainClose(resp)
		time.Sleep(2 * time.Millisecond) // let the down mark expire
	}
	if counts[0].Load() != 0 {
		t.Error("faulted endpoint served a request while dark")
	}

	// Cooldown elapses; half-open probes burn the rest of the fault queue,
	// then one succeeds and the breaker re-closes.
	time.Sleep(50 * time.Millisecond)
	deadline = time.Now().Add(2 * time.Second)
	for p.Stats()[0].Breaker != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker state %q, want closed after recovery", p.Stats()[0].Breaker)
		}
		resp := poolGet(t, p, key0, "/x")
		drainClose(resp)
		time.Sleep(2 * time.Millisecond)
	}
	if counts[0].Load() == 0 {
		t.Error("recovered endpoint served no requests")
	}
}

func TestPoolAllEndpointsCircuitOpenFailsFast(t *testing.T) {
	ft := NewFaultTripper(nil)
	boom := errors.New("down")
	ft.Stub(MatchAll, func() []Fault {
		fs := make([]Fault, 64)
		for i := range fs {
			fs[i] = Fault{Err: boom}
		}
		return fs
	}()...)

	p, err := NewPool([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		WithPoolTransport(&http.Client{Transport: ft}),
		WithPoolHealthInterval(0),
		WithPoolBreaker(1, time.Hour),
		WithPoolSleep((&noSleep{}).sleep),
		WithPoolPolicy(Policy{MaxAttempts: 4, BaseDelay: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// First call trips both breakers (threshold 1 each).
	if _, err := p.Get(context.Background(), HashKey("k"), "/x"); err == nil {
		t.Fatal("want error from all-dark pool")
	}
	// Second call must fail fast without touching the transport.
	calls := ft.Calls()
	_, err = p.Get(context.Background(), HashKey("k"), "/x")
	if !errors.Is(err, ErrNoEndpoints) || !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrNoEndpoints wrapping ErrCircuitOpen", err)
	}
	if ft.Calls() != calls {
		t.Error("fail-fast path still issued transport calls")
	}
}

func TestPoolHealthProbeMarksDownAndUp(t *testing.T) {
	var sick atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && sick.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	_, urls, _ := countingServers(t, 1)

	// Two endpoints, since a pool of one does not probe.
	p, err := NewPool([]string{srv.URL, urls[0]}, WithPoolHealthInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for p.Stats()[0].Healthy != want {
			if time.Now().After(deadline) {
				t.Fatalf("endpoint healthy=%v never observed", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	sick.Store(true)
	waitHealth(false)
	sick.Store(false)
	waitHealth(true)
}

// TestPoolCancelledProbeFreesBreaker: a caller that gives up during the
// half-open probe hands the probe slot back, so the endpoint's breaker
// admits the next probe instead of refusing every request from then on.
func TestPoolCancelledProbeFreesBreaker(t *testing.T) {
	var mode atomic.Int32 // 0 fail, 1 hang until the caller gives up, 2 ok
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 0:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 1:
			<-r.Context().Done()
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer srv.Close()

	const cooldown = 20 * time.Millisecond
	p, err := NewPool([]string{srv.URL}, WithPoolBreaker(1, cooldown), WithPoolPolicy(Policy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	drainClose(poolGet(t, p, HashKey("k"), "/x")) // one 503 opens the breaker
	if got := p.Stats()[0].Breaker; got != "open" {
		t.Fatalf("breaker %q after a failure at threshold 1, want open", got)
	}

	time.Sleep(2 * cooldown)
	mode.Store(1)
	ctx, cancel := context.WithTimeout(context.Background(), cooldown)
	defer cancel()
	if _, err := p.Get(ctx, HashKey("k"), "/x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned probe: err = %v, want deadline exceeded", err)
	}

	mode.Store(2)
	resp, err := p.Get(context.Background(), HashKey("k"), "/x")
	if err != nil {
		t.Fatalf("request after an abandoned probe: %v (breaker %s)", err, p.Stats()[0].Breaker)
	}
	drainClose(resp)
	if got := p.Stats()[0].Breaker; got != "closed" {
		t.Errorf("breaker %q after a successful probe, want closed", got)
	}
}

// TestPoolOfOneStartsNoProbes: a down mark cannot move traffic off a
// pool's only endpoint, so a pool of one sends no /healthz probes.
func TestPoolOfOneStartsNoProbes(t *testing.T) {
	var probes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	p, err := NewPool([]string{srv.URL}, WithPoolHealthInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	time.Sleep(30 * time.Millisecond)
	if n := probes.Load(); n != 0 {
		t.Fatalf("a pool of one sent %d /healthz probes, want none", n)
	}
}

// TestPoolProbesSpendNoRateTokens: the limiter paces attempts inside the
// retry loop, so background health probes leave its tokens alone.
func TestPoolProbesSpendNoRateTokens(t *testing.T) {
	var probes atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	})
	s0, s1 := httptest.NewServer(h), httptest.NewServer(h)
	defer s0.Close()
	defer s1.Close()

	// One token in the bucket; the next arrives in about 17 minutes.
	p, err := NewPool([]string{s0.URL, s1.URL}, WithPoolHealthInterval(time.Millisecond),
		WithPoolLimiter(NewLimiter(0.001, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for probes.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes in 2s", probes.Load())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := p.Get(ctx, HashKey("k"), "/x")
	if err != nil {
		t.Fatalf("first Get after %d probes: %v (did the probes spend the token?)", probes.Load(), err)
	}
	drainClose(resp)
	// The attempt took the only token, so the next Get waits for one and
	// its context ends the wait.
	short, cancelShort := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelShort()
	if _, err := p.Get(short, HashKey("k"), "/x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Get: err = %v, want the limiter wait to hit the deadline", err)
	}
}

// TestPoolMetricsPublishBothFamilies: an instrumented pool publishes the
// service-level elevpriv_httpx_* series and the per-endpoint
// elevpriv_pool_* series together.
func TestPoolMetricsPublishBothFamilies(t *testing.T) {
	_, urls, _ := countingServers(t, 2)
	const service = "test_pool_families"
	moved := counterDeltas(service, "requests", "attempts", "retries")
	epRequests := func() (n int64) {
		for _, u := range urls {
			n += obs.GetCounter(`elevpriv_pool_requests_total{service="` + service + `",endpoint="` + u + `"}`).Value()
		}
		return n
	}
	attemptSeconds := obs.GetHistogram(`elevpriv_httpx_attempt_seconds{service="`+service+`"}`, nil)
	epBefore, timedBefore := epRequests(), attemptSeconds.Count()

	p, err := NewPool(urls, WithPoolHealthInterval(0), WithPoolMetrics(service))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	drainClose(poolGet(t, p, HashKey("k"), "/x"))

	if got := moved(); !reflect.DeepEqual(got, []int64{1, 1, 0}) {
		t.Errorf("requests, attempts, retries moved by %v, want [1 1 0]", got)
	}
	if got := epRequests() - epBefore; got != 1 {
		t.Errorf("per-endpoint requests moved by %d, want 1", got)
	}
	if got := attemptSeconds.Count() - timedBefore; got != 1 {
		t.Errorf("attempt_seconds observed %d attempts, want 1", got)
	}
}

// TestPoolBackoffByRound pins the round schedule: once every endpoint has
// failed in round r, the loop sleeps BaseDelay·Multiplier^r before round
// r+1, whatever the endpoint count. Retries against a pool's only endpoint
// are not failovers.
func TestPoolBackoffByRound(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%d-endpoints", n), func(t *testing.T) {
			urls := make([]string, n)
			for i := range urls {
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.WriteHeader(http.StatusServiceUnavailable)
				}))
				t.Cleanup(srv.Close)
				urls[i] = srv.URL
			}
			pol := DefaultPoolPolicy()
			pol.Jitter = 0
			pol.MaxAttempts = 3 * n // three rounds, two round wraps
			ns := &noSleep{}
			p, err := NewPool(urls, WithPoolHealthInterval(0), WithPoolPolicy(pol), WithPoolSleep(ns.sleep))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			resp, err := p.Get(context.Background(), HashKey("k"), "/x")
			if err != nil {
				t.Fatal(err)
			}
			drainClose(resp)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503 after the exhausted budget", resp.StatusCode)
			}
			var want []time.Duration
			for r := 0; r < 2; r++ {
				want = append(want, time.Duration(float64(pol.BaseDelay)*math.Pow(pol.Multiplier, float64(r))))
			}
			if !reflect.DeepEqual(ns.delays, want) {
				t.Errorf("round-wrap sleeps = %v, want %v", ns.delays, want)
			}
			wantFailovers := int64(3*n - 1)
			if n == 1 {
				wantFailovers = 0
			}
			if got := p.Failovers(); got != wantFailovers {
				t.Errorf("failovers = %d, want %d", got, wantFailovers)
			}
		})
	}
}

func TestPoolRetryableStatusFailsOver(t *testing.T) {
	// Endpoint 0 sheds everything with 429; the pool must land requests on
	// endpoint 1 instead of burning the budget on 0.
	var shedCount atomic.Int64
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedCount.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shed.Close()
	_, urls, counts := countingServers(t, 1)

	ns := &noSleep{}
	p, err := NewPool([]string{shed.URL, urls[0]},
		WithPoolHealthInterval(0), WithPoolJitterSeed(1), WithPoolSleep(ns.sleep),
		WithPoolPolicy(Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Second, Multiplier: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var key uint64
	for i := 0; ; i++ {
		key = HashKey("k-" + strconv.Itoa(i))
		if owner(p.ring, key) == 0 {
			break
		}
	}
	resp := poolGet(t, p, key, "/x")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	drainClose(resp)
	if counts[0].Load() != 1 || shedCount.Load() != 1 {
		t.Errorf("healthy saw %d, shedding saw %d; want 1 and 1", counts[0].Load(), shedCount.Load())
	}
	// Failover away from a shedding shard is immediate: its Retry-After only
	// paces round-wrap backoff, and this request never wrapped.
	if len(ns.delays) != 0 {
		t.Errorf("delays = %v, want none (immediate failover)", ns.delays)
	}
}

func TestPoolRetryAfterPacesRoundWrap(t *testing.T) {
	// Every shard sheds with Retry-After: the pool tries each once, then
	// paces the round wrap with the advertised delay instead of its own
	// (smaller) backoff.
	shed := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		}))
	}
	s0, s1 := shed(), shed()
	defer s0.Close()
	defer s1.Close()

	ns := &noSleep{}
	p, err := NewPool([]string{s0.URL, s1.URL},
		WithPoolHealthInterval(0), WithPoolJitterSeed(1), WithPoolSleep(ns.sleep),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Second, Multiplier: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := p.Get(context.Background(), HashKey("k"), "/x")
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 after exhausted budget", resp.StatusCode)
	}
	if len(ns.delays) != 1 || ns.delays[0] != time.Second {
		t.Errorf("delays = %v, want one 1s round-wrap sleep from Retry-After", ns.delays)
	}
}

func TestPoolConcurrentUse(t *testing.T) {
	srvs, urls, _ := countingServers(t, 4)
	p, err := NewPool(urls, WithPoolHealthInterval(5*time.Millisecond),
		WithPoolBreaker(8, 20*time.Millisecond),
		WithPoolPolicy(Policy{MaxAttempts: 8, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond, Multiplier: 2, Jitter: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if w == 0 && i == 10 {
					once.Do(func() { srvs[3].Close() }) // one shard dies mid-storm
				}
				resp, err := p.Get(context.Background(), HashKey(fmt.Sprintf("w%d-i%d", w, i)), "/v1/thing")
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				drainClose(resp)
			}
		}(w)
	}
	wg.Wait()
}

// owner returns the endpoint index owning key: the first virtual node at or
// clockwise after the key's position.
func owner(r *Ring, key uint64) int { return r.points[r.search(key)].idx }
