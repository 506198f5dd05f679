package segments

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/terrain"
)

// instantSleep skips real backoff waits so retry-heavy tests run fast.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// faultPolicy gives the resilient stacks room to absorb injected fault runs
// without wall-clock delays.
func faultPolicy() httpx.Policy {
	return httpx.Policy{
		MaxAttempts: 6,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// faultableStack stands up both services with fault-injecting transports in
// front of resilient httpx clients, against the WDC terrain.
type faultableStack struct {
	miner  *Miner
	segFT  *httpx.FaultTripper
	elevFT *httpx.FaultTripper
}

func newFaultableStack(tb testing.TB, store *Store, segOpts, elevOpts []httpx.PoolOption) *faultableStack {
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

	segSrv := httptest.NewServer(NewServer(store, WithLogf(tb.Logf)).Handler())
	tb.Cleanup(segSrv.Close)
	elevSrv := httptest.NewServer(elevsvc.NewServer(tr, elevsvc.WithLogf(tb.Logf)).Handler())
	tb.Cleanup(elevSrv.Close)

	segFT := httpx.NewFaultTripper(nil)
	elevFT := httpx.NewFaultTripper(nil)
	base := []httpx.PoolOption{
		httpx.WithPoolPolicy(faultPolicy()),
		httpx.WithPoolSleep(instantSleep),
		httpx.WithPoolJitterSeed(1),
		// A threshold no run reaches: these stacks absorb faults by
		// retrying, and one class's injected failures must not trip a
		// breaker that then fails the next class fast.
		// TestMinerCircuitBreakerOpensAndRecovers passes its own.
		httpx.WithPoolBreaker(math.MaxInt, time.Second),
	}
	segClient := httpx.NewClient(&http.Client{Transport: segFT}, append(base, segOpts...)...)
	elevClient := httpx.NewClient(&http.Client{Transport: elevFT}, append(base, elevOpts...)...)

	return &faultableStack{
		miner: NewMiner(
			NewClient(segSrv.URL, segClient),
			elevsvc.NewClient(elevSrv.URL, elevClient),
		),
		segFT:  segFT,
		elevFT: elevFT,
	}
}

func populatedStore(tb testing.TB, seed int64, n int) *Store {
	tb.Helper()
	store := NewStore()
	if err := store.Populate(cityBounds(), n, "wdc", DefaultPopulateConfig(), rand.New(rand.NewSource(seed))); err != nil {
		tb.Fatal(err)
	}
	return store
}

// TestMineClassesDeterministicOrder pins the fix for the map-iteration bug:
// mined sample order must be identical across runs even though classes is a
// Go map.
func TestMineClassesDeterministicOrder(t *testing.T) {
	store := populatedStore(t, 11, 60)
	b := cityBounds()
	// Overlapping halves so several labels yield samples.
	classes := map[string]geo.BBox{
		"delta": geo.NewBBox(b.SW, geo.LatLng{Lat: 38.92, Lng: b.NE.Lng}),
		"alpha": geo.NewBBox(geo.LatLng{Lat: 38.88, Lng: b.SW.Lng}, b.NE),
		"mike":  b,
	}

	stack := newFaultableStack(t, store, nil, nil)
	stack.miner.Samples = 20
	stack.miner.GridRows, stack.miner.GridCols = 4, 4

	first, err := stack.miner.MineClasses(context.Background(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("mined nothing")
	}
	second, err := stack.miner.MineClasses(context.Background(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two identical MineClasses runs produced different output")
	}
	// Labels must come out in ascending order.
	rank := map[string]int{"alpha": 0, "delta": 1, "mike": 2}
	last := 0
	for _, ms := range first {
		r, ok := rank[ms.Label]
		if !ok {
			t.Fatalf("unknown label %q", ms.Label)
		}
		if r < last {
			t.Fatalf("labels out of sorted order: %q after rank %d", ms.Label, last)
		}
		last = r
	}
}

// TestMineBoundaryParallelMatchesSerial is the concurrent sweep's ordering
// guarantee: any Workers value produces byte-identical output.
func TestMineBoundaryParallelMatchesSerial(t *testing.T) {
	store := populatedStore(t, 11, 60)
	stack := newFaultableStack(t, store, nil, nil)
	stack.miner.Samples = 20

	stack.miner.Workers = 1
	serial, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("mined nothing")
	}
	for _, workers := range []int{2, 8, 32} {
		stack.miner.Workers = workers
		parallel, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d output differs from serial sweep", workers)
		}
	}
}

// TestMineClassesSurvivesSeededFaults is the acceptance gate: a full
// MineClasses sweep over a seeded schedule of transient 5xx + latency
// faults on both services must succeed with byte-identical output (same
// IDs, same order) to a fault-free run.
func TestMineClassesSurvivesSeededFaults(t *testing.T) {
	store := populatedStore(t, 11, 60)
	b := cityBounds()
	classes := map[string]geo.BBox{
		"North": geo.NewBBox(geo.LatLng{Lat: 38.90, Lng: b.SW.Lng}, b.NE),
		"South": geo.NewBBox(b.SW, geo.LatLng{Lat: 38.90, Lng: b.NE.Lng}),
	}

	clean := newFaultableStack(t, store, nil, nil)
	clean.miner.Samples = 20
	clean.miner.GridRows, clean.miner.GridCols = 4, 4
	want, err := clean.miner.MineClasses(context.Background(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fault-free run mined nothing")
	}

	flaky := newFaultableStack(t, store, nil, nil)
	flaky.miner.Samples = 20
	flaky.miner.GridRows, flaky.miner.GridCols = 4, 4
	transient := httpx.Fault{Delay: 200 * time.Microsecond, Status: http.StatusServiceUnavailable, Body: "overloaded"}
	flaky.segFT.Stub(httpx.MatchAll, httpx.RandomFaults(42, 4000, 0.3, transient)...)
	flaky.elevFT.Stub(httpx.MatchAll, httpx.RandomFaults(43, 4000, 0.3, transient)...)

	got, err := flaky.miner.MineClasses(context.Background(), classes)
	if err != nil {
		t.Fatalf("sweep under seeded faults failed: %v", err)
	}
	if flaky.segFT.Injected() == 0 || flaky.elevFT.Injected() == 0 {
		t.Fatalf("fault schedules never fired (seg %d, elev %d)",
			flaky.segFT.Injected(), flaky.elevFT.Injected())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("output under injected faults differs from fault-free run")
	}
	t.Logf("absorbed %d segment + %d elevation faults across %d+%d calls",
		flaky.segFT.Injected(), flaky.elevFT.Injected(),
		flaky.segFT.Calls(), flaky.elevFT.Calls())
}

// TestMineBoundaryFlakyExploreRecovers: a short burst of 503s on the
// explore endpoint is absorbed by retries without changing the output.
func TestMineBoundaryFlakyExploreRecovers(t *testing.T) {
	store := populatedStore(t, 11, 40)

	clean := newFaultableStack(t, store, nil, nil)
	clean.miner.Samples = 20
	want, err := clean.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}

	flaky := newFaultableStack(t, store, nil, nil)
	flaky.miner.Samples = 20
	flaky.segFT.Stub(httpx.MatchPath("/explore"),
		httpx.Fault{Status: http.StatusServiceUnavailable},
		httpx.Fault{Status: http.StatusBadGateway},
	)
	got, err := flaky.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if flaky.segFT.Injected() != 2 {
		t.Errorf("injected = %d, want 2", flaky.segFT.Injected())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("recovered sweep differs from clean sweep")
	}
}

// TestMineBoundaryMidSweepElevationFailure: once the elevation service goes
// hard-down mid-sweep, the sweep aborts with the service's *APIError after
// retries are exhausted.
func TestMineBoundaryMidSweepElevationFailure(t *testing.T) {
	store := populatedStore(t, 11, 40)
	stack := newFaultableStack(t, store, nil, nil)
	stack.miner.Samples = 20

	// Two healthy profile fetches, then the service dies for good.
	schedule := []httpx.Fault{{}, {}}
	for i := 0; i < 400; i++ {
		schedule = append(schedule, httpx.Fault{Status: http.StatusServiceUnavailable, Body: "down"})
	}
	stack.elevFT.Stub(httpx.MatchPath("/elevation"), schedule...)

	_, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err == nil {
		t.Fatal("sweep succeeded against a dead elevation service")
	}
	var apiErr *elevsvc.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *elevsvc.APIError", err)
	}
	if apiErr.HTTPCode != http.StatusServiceUnavailable {
		t.Errorf("http code = %d, want 503", apiErr.HTTPCode)
	}
}

// TestMineClassesPartialReportsPerClassErrors: a partial sweep keeps the
// healthy classes and names the failing ones.
func TestMineClassesPartialReportsPerClassErrors(t *testing.T) {
	store := populatedStore(t, 11, 60)
	b := cityBounds()
	good := geo.NewBBox(geo.LatLng{Lat: 38.90, Lng: b.SW.Lng}, b.NE)
	bad := geo.NewBBox(b.SW, geo.LatLng{Lat: 38.90, Lng: b.NE.Lng})

	stack := newFaultableStack(t, store, nil, nil)
	stack.miner.Samples = 20
	stack.miner.GridRows, stack.miner.GridCols = 4, 4

	// Poison only the bad class's explore calls: its cells all carry the
	// southern boundary's sw_lat in the query string.
	matchBad := func(r *http.Request) bool {
		return strings.Contains(r.URL.RawQuery, "sw_lat=38.8") &&
			!strings.Contains(r.URL.RawQuery, "sw_lat=38.9")
	}
	faults := make([]httpx.Fault, 400)
	for i := range faults {
		faults[i] = httpx.Fault{Status: http.StatusBadGateway, Body: "proxy sad"}
	}
	stack.segFT.Stub(matchBad, faults...)

	mined, sweepErr := stack.miner.MineClassesPartial(context.Background(), map[string]geo.BBox{
		"Good": good,
		"Bad":  bad,
	})
	if sweepErr == nil {
		t.Fatal("poisoned class did not surface an error")
	}
	if len(sweepErr.PerClass) != 1 || sweepErr.PerClass[0].Label != "Bad" {
		t.Fatalf("sweep error = %v, want exactly class Bad", sweepErr)
	}
	var apiErr *APIError
	if !errors.As(sweepErr.PerClass[0].Err, &apiErr) || apiErr.HTTPCode != http.StatusBadGateway {
		t.Errorf("per-class err = %v, want *APIError with 502", sweepErr.PerClass[0].Err)
	}
	if len(mined) == 0 {
		t.Fatal("healthy class contributed nothing")
	}
	for _, ms := range mined {
		if ms.Label != "Good" {
			t.Fatalf("sample from failed class leaked: %q", ms.Label)
		}
	}
}

// TestMinerCircuitBreakerOpensAndRecovers: consecutive elevation failures
// trip the breaker (the sweep fails fast with ErrCircuitOpen in the chain);
// once the cooldown passes and the service is healthy again, the next sweep
// re-closes the breaker and succeeds.
func TestMinerCircuitBreakerOpensAndRecovers(t *testing.T) {
	store := populatedStore(t, 11, 40)
	stack := newFaultableStack(t, store, nil, []httpx.PoolOption{httpx.WithPoolBreaker(3, 150*time.Millisecond)})
	stack.miner.Samples = 20
	stack.miner.Workers = 1 // serial keeps the consecutive-failure count exact

	stack.elevFT.Stub(httpx.MatchPath("/elevation"),
		httpx.Fault{Status: http.StatusServiceUnavailable},
		httpx.Fault{Status: http.StatusServiceUnavailable},
		httpx.Fault{Status: http.StatusServiceUnavailable},
	)

	_, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if !errors.Is(err, httpx.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen after 3 consecutive failures", err)
	}

	time.Sleep(200 * time.Millisecond) // cooldown elapses; schedule is spent
	mined, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
	if err != nil {
		t.Fatalf("sweep after recovery failed: %v", err)
	}
	if len(mined) == 0 {
		t.Fatal("recovered sweep mined nothing")
	}
}

// TestMineBoundaryContextCancellation: a context that dies mid-mine (here
// via an injected latency stall) aborts the sweep promptly with the
// context's error.
func TestMineBoundaryContextCancellation(t *testing.T) {
	store := populatedStore(t, 11, 40)
	stack := newFaultableStack(t, store, nil, nil)
	stack.miner.Samples = 20

	stack.elevFT.Stub(httpx.MatchPath("/elevation"), httpx.Fault{Delay: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := stack.miner.MineBoundary(ctx, "WDC", cityBounds())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the stalled call")
	}
}

// TestMineClassesPartialDeadContext: a context already dead charges every
// remaining class with the context error instead of hanging.
func TestMineClassesPartialDeadContext(t *testing.T) {
	stack := newFaultableStack(t, NewStore(), nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mined, sweepErr := stack.miner.MineClassesPartial(ctx, map[string]geo.BBox{
		"A": cityBounds(),
		"B": cityBounds(),
	})
	if len(mined) != 0 {
		t.Errorf("dead context still mined %d samples", len(mined))
	}
	if sweepErr == nil || len(sweepErr.PerClass) != 2 {
		t.Fatalf("sweep error = %v, want both classes charged", sweepErr)
	}
	for _, ce := range sweepErr.PerClass {
		if !errors.Is(ce.Err, context.Canceled) {
			t.Errorf("class %s err = %v, want context.Canceled", ce.Label, ce.Err)
		}
	}
}

// BenchmarkMineBoundary measures sweep throughput by worker count; the
// serial-vs-parallel numbers land in EXPERIMENTS.md. The in-process
// services answer in microseconds, so this is the worker pool's overhead
// floor; BenchmarkMineBoundaryLatency is the realistic remote-API case.
func BenchmarkMineBoundary(b *testing.B) {
	store := populatedStore(b, 11, 120)
	stack := newFaultableStack(b, store, nil, nil)
	stack.miner.Samples = 100
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			stack.miner.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mined, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
				if err != nil {
					b.Fatal(err)
				}
				if len(mined) == 0 {
					b.Fatal("mined nothing")
				}
			}
		})
	}
}

// BenchmarkMineBoundaryLatency injects a 2 ms per-request delay at the
// transport — a stand-in for real network RTT to the remote services the
// paper mined — and shows the sweep overlapping those waits.
func BenchmarkMineBoundaryLatency(b *testing.B) {
	store := populatedStore(b, 11, 120)
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			stack := newFaultableStack(b, store, nil, nil)
			stack.miner.Samples = 100
			stack.miner.Workers = workers
			rtt := httpx.Fault{Delay: 2 * time.Millisecond}
			stack.segFT.Stub(httpx.MatchAll, httpx.RandomFaults(1, 1<<15, 1.01, rtt)...)
			stack.elevFT.Stub(httpx.MatchAll, httpx.RandomFaults(1, 1<<15, 1.01, rtt)...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mined, err := stack.miner.MineBoundary(context.Background(), "WDC", cityBounds())
				if err != nil {
					b.Fatal(err)
				}
				if len(mined) == 0 {
					b.Fatal("mined nothing")
				}
			}
		})
	}
}
