package segments

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/terrain"
)

// pooledStack stands up a sharded serving tier in miniature: four replica
// instances of each service (all full replicas over the same store and
// terrain, exactly like the production shards), with pooled clients routing
// by consistent hash through a shared fault-injecting transport.
type pooledStack struct {
	miner     *Miner
	ft        *httpx.FaultTripper
	segPool   *httpx.Pool
	elevPool  *httpx.Pool
	segHosts  []string
	elevHosts []string
}

func newPooledStack(tb testing.TB, store *Store, replicas int) *pooledStack {
	tb.Helper()
	world := terrain.World()
	wdc, err := terrain.CityByName(world, "WDC")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := wdc.Terrain()
	if err != nil {
		tb.Fatal(err)
	}

	ft := httpx.NewFaultTripper(nil)
	hc := &http.Client{Transport: ft}

	segURLs := make([]string, replicas)
	elevURLs := make([]string, replicas)
	segHosts := make([]string, replicas)
	elevHosts := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		segSrv := httptest.NewServer(NewServer(store, WithLogf(tb.Logf), WithShard(i, replicas)).Handler())
		tb.Cleanup(segSrv.Close)
		elevSrv := httptest.NewServer(elevsvc.NewServer(tr, elevsvc.WithLogf(tb.Logf), elevsvc.WithShard(i, replicas)).Handler())
		tb.Cleanup(elevSrv.Close)
		segURLs[i], elevURLs[i] = segSrv.URL, elevSrv.URL
		segHosts[i] = mustHost(tb, segSrv.URL)
		elevHosts[i] = mustHost(tb, elevSrv.URL)
	}

	// MaxAttempts 8 over 4 endpoints: the sweep can burn attempts on a dark
	// shard every round and still land each request on a live replica.
	policy := httpx.Policy{
		MaxAttempts: 8,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
	opts := []httpx.PoolOption{
		httpx.WithPoolPolicy(policy),
		httpx.WithPoolTransport(hc),
		httpx.WithPoolSleep(instantSleep),
		httpx.WithPoolJitterSeed(1),
		// A low threshold and short cooldown so the dark shard's breaker
		// opens within one sweep and recovers within one test.
		httpx.WithPoolBreaker(3, 50*time.Millisecond),
		// Down marks expire almost immediately: the dark shard keeps getting
		// optimistic retries, so its consecutive-failure count climbs until
		// the breaker takes over the back-pressure.
		httpx.WithPoolDownTTL(time.Millisecond),
		// No background probes: the test drives every request itself.
		httpx.WithPoolHealthInterval(0),
	}
	segPool, err := httpx.NewPool(segURLs, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(segPool.Close)
	elevPool, err := httpx.NewPool(elevURLs, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(elevPool.Close)

	return &pooledStack{
		miner:     NewMiner(NewPoolClient(segPool), elevsvc.NewPoolClient(elevPool)),
		ft:        ft,
		segPool:   segPool,
		elevPool:  elevPool,
		segHosts:  segHosts,
		elevHosts: elevHosts,
	}
}

func mustHost(tb testing.TB, rawURL string) string {
	tb.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		tb.Fatal(err)
	}
	return u.Host
}

// TestMinePooledMatchesSingleEndpoint: with four healthy replicas behind
// consistent-hash pools, a sweep's output is byte-identical to the
// single-endpoint serial baseline, and the ring balances the per-endpoint
// request counts within 2x.
func TestMinePooledMatchesSingleEndpoint(t *testing.T) {
	store := populatedStore(t, 11, 60)

	baseline := newFaultableStack(t, store, nil, nil)
	baseline.miner.Samples = 20
	baseline.miner.GridRows, baseline.miner.GridCols = 6, 6
	baseline.miner.Workers = 1
	want, err := baseline.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline mined nothing")
	}

	pooled := newPooledStack(t, store, 4)
	pooled.miner.Samples = 20
	pooled.miner.GridRows, pooled.miner.GridCols = 6, 6
	got, err := pooled.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("pooled sweep differs from single-endpoint serial baseline")
	}

	// Balance is the ring's property, so it is checked on a one-worker
	// sweep. With one request in flight no owner is ever overloaded, so
	// nothing spills to the least-loaded endpoint and routing is
	// deterministic; at 8 workers the spill, which the pool does on
	// purpose, can skew a sample of ~35 requests past 2x.
	serial := newPooledStack(t, store, 4)
	serial.miner.Samples = 20
	serial.miner.GridRows, serial.miner.GridCols = 6, 6
	serial.miner.Workers = 1
	got, err = serial.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("one-worker pooled sweep differs from single-endpoint serial baseline")
	}
	for _, pool := range []*httpx.Pool{serial.segPool, serial.elevPool} {
		stats := pool.Stats()
		lo, hi := stats[0].Requests, stats[0].Requests
		for _, s := range stats[1:] {
			if s.Requests < lo {
				lo = s.Requests
			}
			if s.Requests > hi {
				hi = s.Requests
			}
		}
		if lo == 0 {
			t.Fatalf("an endpoint served zero requests: %+v", stats)
		}
		if hi > 2*lo {
			t.Errorf("per-endpoint balance worse than 2x: min %d, max %d (%+v)", lo, hi, stats)
		}
	}
}

// TestMinePooledSurvivesDarkShard is the pool's acceptance gate, the sharded
// analogue of TestMineClassesSurvivesSeededFaults: one of four replicas of
// each service goes dark mid-sweep (hard transport errors after a few
// healthy responses). The sweep must complete with zero lost cells — output
// byte-identical to the single-endpoint baseline — the dark shards'
// breakers must open under the sustained failures, and once the shards heal
// the breakers must re-close.
func TestMinePooledSurvivesDarkShard(t *testing.T) {
	store := populatedStore(t, 11, 60)

	baseline := newFaultableStack(t, store, nil, nil)
	baseline.miner.Samples = 20
	baseline.miner.GridRows, baseline.miner.GridCols = 6, 6
	baseline.miner.Workers = 1
	want, err := baseline.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline mined nothing")
	}

	stack := newPooledStack(t, store, 4)
	stack.miner.Samples = 20
	stack.miner.GridRows, stack.miner.GridCols = 6, 6

	// Shard 2 of the segment tier and shard 1 of the elevation tier answer
	// their first two requests, then drop off the network until healed —
	// the SIGKILL-mid-sweep scenario at the transport seam.
	deadSeg, deadElev := stack.segHosts[2], stack.elevHosts[1]
	var healed atomic.Bool
	darkAfter := func(host string, warmup int64) func(*http.Request) bool {
		var hits atomic.Int64
		return func(r *http.Request) bool {
			return !healed.Load() && r.URL.Host == host && hits.Add(1) > warmup
		}
	}
	down := httpx.Fault{Err: errors.New("connect: connection refused (injected)")}
	schedule := make([]httpx.Fault, 10000)
	for i := range schedule {
		schedule[i] = down
	}
	stack.ft.Stub(darkAfter(deadSeg, 2), schedule...)
	stack.ft.Stub(darkAfter(deadElev, 2), schedule...)

	got, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatalf("sweep with a dark shard per service failed: %v", err)
	}
	if stack.ft.Injected() == 0 {
		t.Fatal("dark-shard faults never fired")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sweep with a dark shard lost or altered cells vs the single-endpoint baseline")
	}
	if n := stack.segPool.Failovers() + stack.elevPool.Failovers(); n == 0 {
		t.Fatal("no failovers recorded despite dark shards")
	}

	// Every attempt the pool spent on a dark shard was recorded as a failure.
	if s := stack.segPool.Stats()[2]; s.Failures == 0 {
		t.Fatalf("dark segment shard recorded no failures: %+v", s)
	}
	if s := stack.elevPool.Stats()[1]; s.Failures == 0 {
		t.Fatalf("dark elevation shard recorded no failures: %+v", s)
	}

	// Drive each dark shard's breaker open while the schedule still matches.
	// How many sweep requests the ring routed to the corpse before the sweep
	// finished varies with interleaving, so the trip itself is driven here
	// deterministically: keys owned by the dark shard hit it first (the 1ms
	// down mark keeps expiring), fail, and fail over — each pass adds one
	// consecutive failure until the threshold-3 breaker takes over.
	tripOpen := func(pool *httpx.Pool, deadIdx int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for i := 0; pool.Stats()[deadIdx].Breaker != "open"; i++ {
			if time.Now().After(deadline) {
				t.Fatalf("breaker for dark shard %d still %q after sustained failures",
					deadIdx, pool.Stats()[deadIdx].Breaker)
			}
			resp, err := pool.Get(context.Background(), httpx.HashKey("trip-"+strconv.Itoa(i)), "/healthz")
			if err != nil {
				t.Fatalf("trip probe %d: %v", i, err)
			}
			resp.Body.Close()
		}
	}
	tripOpen(stack.segPool, 2)
	tripOpen(stack.elevPool, 1)

	// The shards come back. After the cooldown, keys the ring assigns to the
	// recovered shards admit a half-open probe that now succeeds, and the
	// breakers re-close.
	healed.Store(true)
	time.Sleep(100 * time.Millisecond) // > the 50ms breaker cooldown

	recover := func(pool *httpx.Pool, deadIdx int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for i := 0; pool.Stats()[deadIdx].Breaker != "closed"; i++ {
			if time.Now().After(deadline) {
				t.Fatalf("breaker for recovered shard %d still %q", deadIdx, pool.Stats()[deadIdx].Breaker)
			}
			// Distinct keys walk the ring until one is owned by the
			// recovered shard and carries the probe.
			resp, err := pool.Get(context.Background(), httpx.HashKey("probe-"+strconv.Itoa(i)), "/healthz")
			if err != nil {
				t.Fatalf("recovery probe %d: %v", i, err)
			}
			resp.Body.Close()
		}
	}
	recover(stack.segPool, 2)
	recover(stack.elevPool, 1)

	t.Logf("absorbed %d injected dark-shard faults across %d calls; seg failovers %d, elev failovers %d",
		stack.ft.Injected(), stack.ft.Calls(), stack.segPool.Failovers(), stack.elevPool.Failovers())
}
