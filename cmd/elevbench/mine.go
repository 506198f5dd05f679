package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/segments"
	"elevprivacy/internal/terrain"
)

// mineCities are the TM-3 classes the sweep mines.
var mineCities = []string{"NYC", "WDC", "SF", "CS"}

// mineTraceSpans is the traced run's span ring: about 60 iterations of
// 4.5k spans (per service call an attempt, a server and a handler span).
const mineTraceSpans = 1 << 18

// minePlan sizes the sweep.
type minePlan struct {
	segments, grid, samples, shards, workers int
	minIterations                            int
}

func planMine(cfg runConfig) minePlan {
	if cfg.quick {
		return minePlan{segments: 30, grid: 4, samples: 30, shards: 4, workers: 2, minIterations: 2}
	}
	return minePlan{segments: 120, grid: 8, samples: 100, shards: 4, workers: 2, minIterations: 1}
}

// citySource is the elevation service's dem.Source: each point goes to the
// terrain of the city whose boundary, widened as cmd/elevmine widens it,
// holds it. Traced runs count and time every sample.
type citySource struct {
	cities []*terrain.City
	fields []*terrain.Terrain
	timed  bool

	samples atomic.Int64
	nanos   atomic.Int64
}

func (s *citySource) ElevationAt(p geo.LatLng) (float64, error) {
	if !s.timed {
		return s.route(p)
	}
	start := time.Now()
	e, err := s.route(p)
	s.nanos.Add(int64(time.Since(start)))
	s.samples.Add(1)
	return e, err
}

func (s *citySource) route(p geo.LatLng) (float64, error) {
	for i, c := range s.cities {
		if c.Bounds.Expand(0.5, 0.5).Contains(p) {
			return s.fields[i].ElevationAt(p)
		}
	}
	return 0, fmt.Errorf("%w: %v not covered by any city", dem.ErrOutOfBounds, p)
}

// mineInputs is what set-up builds: the segment store, the terrains and
// the classes to sweep.
type mineInputs struct {
	store   *segments.Store
	source  *citySource
	classes map[string]geo.BBox
}

func setupMine(cfg runConfig, plan minePlan) (*mineInputs, error) {
	in := &mineInputs{store: segments.NewStore(), source: &citySource{timed: cfg.trace}, classes: map[string]geo.BBox{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	world := terrain.World()
	for _, name := range mineCities {
		c, err := terrain.CityByName(world, name)
		if err != nil {
			return nil, err
		}
		tr, err := c.Terrain()
		if err != nil {
			return nil, err
		}
		in.source.cities = append(in.source.cities, c)
		in.source.fields = append(in.source.fields, tr)
		if err := in.store.Populate(c.Bounds, plan.segments, c.Abbrev, segments.DefaultPopulateConfig(), rng); err != nil {
			return nil, err
		}
		in.classes[c.Abbrev] = c.Bounds
	}
	return in, nil
}

// tier is one set of sharded servers and the pooled miner in front of
// them.
type tier struct {
	servers  []*http.Server
	segPool  *httpx.Pool
	elevPool *httpx.Pool
	miner    *segments.Miner
}

func quiet(string, ...any) {}

// startTier starts fresh shards of both services and their pools. With a
// recorder (traced runs) both sides are timed.
func startTier(in *mineInputs, plan minePlan, rec *mineRecorder) (*tier, error) {
	t := &tier{}
	var segURLs, elevURLs []string
	for i := 0; i < plan.shards; i++ {
		var seg, elev http.Handler = segments.NewServer(in.store, segments.WithShard(i, plan.shards), segments.WithLogf(quiet)).Handler(),
			elevsvc.NewServer(in.source, elevsvc.WithShard(i, plan.shards), elevsvc.WithLogf(quiet)).Handler()
		if rec != nil {
			seg, elev = rec.server("segments", seg), rec.server("elevsvc", elev)
		}
		for _, s := range []struct {
			h    http.Handler
			urls *[]string
		}{{seg, &segURLs}, {elev, &elevURLs}} {
			srv, url, err := serve(s.h)
			if err != nil {
				t.close()
				return nil, err
			}
			t.servers = append(t.servers, srv)
			*s.urls = append(*s.urls, url)
		}
	}
	var segOpts, elevOpts []httpx.PoolOption
	if rec != nil {
		segOpts = append(segOpts, httpx.WithPoolTransport(rec.transport("segments")))
		elevOpts = append(elevOpts, httpx.WithPoolTransport(rec.transport("elevsvc")))
	}
	var err error
	if t.segPool, err = httpx.NewPool(segURLs, segOpts...); err != nil {
		t.close()
		return nil, err
	}
	if t.elevPool, err = httpx.NewPool(elevURLs, elevOpts...); err != nil {
		t.close()
		return nil, err
	}
	t.miner = newMiner(segments.NewPoolClient(t.segPool), elevsvc.NewPoolClient(t.elevPool), plan, plan.workers)
	return t, nil
}

func newMiner(seg *segments.Client, elev *elevsvc.Client, plan minePlan, workers int) *segments.Miner {
	m := segments.NewMiner(seg, elev)
	m.GridRows, m.GridCols = plan.grid, plan.grid
	m.Samples = plan.samples
	m.Workers = workers
	return m
}

func (t *tier) close() {
	t.segPool.Close()
	t.elevPool.Close()
	for _, s := range t.servers {
		s.Close()
	}
}

// poolCounts sums the pools' attempt and failover counters.
func (t *tier) poolCounts() (attempts, failovers int64) {
	for _, p := range []*httpx.Pool{t.segPool, t.elevPool} {
		for _, s := range p.Stats() {
			attempts += s.Requests
		}
		failovers += p.Failovers()
	}
	return attempts, failovers
}

// serialSweep is the reference output: one unsharded endpoint per service,
// one worker.
func serialSweep(ctx context.Context, in *mineInputs, plan minePlan) ([]segments.MinedSegment, error) {
	segSrv, segURL, err := serve(segments.NewServer(in.store, segments.WithLogf(quiet)).Handler())
	if err != nil {
		return nil, err
	}
	defer segSrv.Close()
	elevSrv, elevURL, err := serve(elevsvc.NewServer(in.source, elevsvc.WithLogf(quiet)).Handler())
	if err != nil {
		return nil, err
	}
	defer elevSrv.Close()
	m := newMiner(segments.NewClient(segURL, httpx.NewClient(nil)), elevsvc.NewClient(elevURL, httpx.NewClient(nil)), plan, 1)
	return m.MineClasses(ctx, in.classes)
}

// sweepKind tells cold sweeps (fresh servers) from warm re-sweeps.
type sweepKind int32

const (
	cold sweepKind = iota
	warm
)

// sweep is one timed MineClasses call.
type sweep struct {
	kind       sweepKind
	start, end time.Time
	// Deltas over the sweep: profile-cache lookups and DEM samples.
	hits, misses   int64
	samples, nanos int64
	// attempts counts pool attempts in the sweep; failovers, on an
	// iteration's warm sweep, the failovers of the whole iteration.
	attempts, failovers int64
}

func runMine(ctx context.Context, cfg runConfig, r *record) error {
	plan := planMine(cfg)
	in, err := measureSetup(r, func(int) (*mineInputs, error) { return setupMine(cfg, plan) }, nil)
	if err != nil {
		return err
	}

	want, err := serialSweep(ctx, in, plan)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	r.check("reference-nonempty", len(want) > 0, "%d segments", len(want))

	hits := obs.GetCounter(`elevpriv_serving_cache_hits_total{cache="elev_profiles"}`)
	misses := obs.GetCounter(`elevpriv_serving_cache_misses_total{cache="elev_profiles"}`)
	var rec *mineRecorder
	var tracer *obs.Tracer
	w := &waits{}
	mismatches := 0
	// iterate runs one cold sweep on fresh servers and one warm re-sweep.
	iterate := func() ([]sweep, error) {
		t, err := startTier(in, plan, rec)
		if err != nil {
			return nil, err
		}
		defer t.close()
		var out []sweep
		for _, kind := range []sweepKind{cold, warm} {
			if rec != nil {
				rec.kind.Store(int32(kind))
			}
			s := sweep{kind: kind, hits: hits.Value(), misses: misses.Value(),
				samples: in.source.samples.Load(), nanos: in.source.nanos.Load()}
			s.attempts, _ = t.poolCounts()
			s.start = time.Now()
			got, err := t.miner.MineClasses(ctx, in.classes)
			s.end = time.Now()
			if err != nil {
				return out, err
			}
			attempts, _ := t.poolCounts()
			s.attempts = attempts - s.attempts
			s.hits, s.misses = hits.Value()-s.hits, misses.Value()-s.misses
			s.samples, s.nanos = in.source.samples.Load()-s.samples, in.source.nanos.Load()-s.nanos
			if !reflect.DeepEqual(got, want) {
				mismatches++
			}
			out = append(out, s)
		}
		_, out[len(out)-1].failovers = t.poolCounts()
		return out, nil
	}

	if _, err := iterate(); err != nil { // warm-up
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	mismatches = 0
	if cfg.trace {
		rec = &mineRecorder{attempts: map[uint64]attemptRec{}, served: map[uint64]time.Duration{}}
		tracer = startTracing(mineTraceSpans)
		defer obs.DisableTracing()
	}

	var sweeps []sweep
	failed := 0
	start, alloc := time.Now(), heapAllocated()
	for i := 0; i < plan.minIterations || time.Since(start) < time.Duration(cfg.seconds)*time.Second; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		held := 0
		if tracer != nil {
			held = tracer.Len()
		}
		got, err := iterate()
		sweeps = append(sweeps, got...)
		if err != nil {
			failed++
			r.Checks = append(r.Checks, check{Name: "sweep-error", Detail: err.Error()})
			break
		}
		// A traced run stops early rather than overflow the span ring.
		if tracer != nil && tracer.Len()+2*(tracer.Len()-held) > mineTraceSpans {
			break
		}
		// Set-up is repeated between iterations, untimed for the sweeps, so
		// its median spans the run rather than its first moments.
		if err := r.timeSetup(func() error { _, err := setupMine(cfg, plan); return err }); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	r.set("alloc_kb_per_op", float64(heapAllocated()-alloc)/1024/float64(max(len(sweeps)/2, 1)), "KB")
	r.attempt(len(sweeps)+failed, failed+mismatches)
	r.check("sweeps-identical", mismatches == 0 && failed == 0,
		"%d sweeps, %d differ from the serial single-endpoint sweep", len(sweeps), mismatches)

	byKind := [2]*dist{{}, {}}
	for _, s := range sweeps {
		byKind[s.kind].addDur(s.end.Sub(s.start))
	}
	r.set("main_p50_ms", byKind[cold].q(0.5)/1e6, "ms")
	r.set("aux_p50_ms", byKind[warm].q(0.5)/1e6, "ms")
	r.Samples["main_p50_ms"], r.Samples["aux_p50_ms"] = byKind[cold].n(), byKind[warm].n()
	r.detail("mined_segments", float64(len(want)), "count")
	r.tail("cold_sweep", byKind[cold])
	r.tail("warm_sweep", byKind[warm])

	if !cfg.trace {
		return nil
	}
	spans, err := finishTracing(r, tracer, w, cfg.traceOut)
	if err != nil {
		return err
	}
	mineLayers(r, newSpanSet(spans), sweeps, rec)
	return nil
}

// attemptRec is one pool attempt as the traced transport saw it.
type attemptRec struct {
	service string
	kind    sweepKind
	rtt     time.Duration
	status  int // 0 on a transport error
}

// mineRecorder times both sides of every pooled call in traced runs. The
// transport tags each attempt with an ID the server-side wrapper reads, so
// a round trip can be split into server time and the rest.
type mineRecorder struct {
	kind atomic.Int32
	ids  atomic.Uint64

	mu       sync.Mutex
	attempts map[uint64]attemptRec
	served   map[uint64]time.Duration // server-side time per attempt
}

const attemptHeader = "X-Elevbench-Attempt"

type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(req *http.Request) (*http.Response, error) { return f(req) }

// transport is the pool's Doer for service: an *http.Client like the
// pool's default, with a span and a round-trip time per attempt.
func (m *mineRecorder) transport(service string) httpx.Doer {
	next := &http.Client{Timeout: 30 * time.Second}
	return doerFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/healthz" {
			return next.Do(req)
		}
		ctx, span := obs.StartSpan(req.Context(), "httpx.attempt")
		span.SetAttr("service", service)
		defer span.End()
		id := m.ids.Add(1)
		req = req.WithContext(ctx)
		req.Header.Set(attemptHeader, strconv.FormatUint(id, 10))
		obs.InjectTraceHeader(ctx, req.Header)
		start := time.Now()
		resp, err := next.Do(req)
		rec := attemptRec{service: service, kind: sweepKind(m.kind.Load()), rtt: time.Since(start)}
		if err == nil {
			rec.status = resp.StatusCode
		}
		m.mu.Lock()
		m.attempts[id] = rec
		m.mu.Unlock()
		return resp, err
	})
}

// server wraps a service's whole handler with a span and a timer.
func (m *mineRecorder) server(service string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(attemptHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		if sc, ok := obs.ExtractTraceHeader(r.Header); ok {
			ctx = obs.ContextWithRemoteSpan(ctx, sc)
		}
		_, span := obs.StartSpan(ctx, service+".handler")
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		span.End()
		m.mu.Lock()
		m.served[id] = d
		m.mu.Unlock()
	})
}

// mineLayers computes the sweep's per-layer metrics: per-call times from
// the recorder, per-sweep counts from the sweeps, phase times from the
// miner's own spans.
func mineLayers(r *record, set *spanSet, sweeps []sweep, rec *mineRecorder) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	net, explore := &dist{}, &dist{}
	segServer := &dist{}
	profile := [2]*dist{{}, {}}
	elevServer := [2]*dist{{}, {}}
	exploreCalls, profileCalls := 0, [2]int{}
	rejected := 0
	for id, a := range rec.attempts {
		if a.status == 0 || a.status == http.StatusTooManyRequests || a.status >= 500 {
			rejected++
		}
		srv, ok := rec.served[id]
		if ok {
			net.addDur(a.rtt - srv)
		}
		switch a.service {
		case "segments":
			explore.addDur(a.rtt)
			if ok {
				segServer.addDur(srv)
			}
			exploreCalls++
		case "elevsvc":
			profile[a.kind].addDur(a.rtt)
			if ok {
				elevServer[a.kind].addDur(srv)
			}
			profileCalls[a.kind]++
		}
	}
	perKind := [2]int{}
	for _, s := range sweeps {
		perKind[s.kind]++
	}
	nSweeps := float64(len(sweeps))
	r.set("httpx.net_us_p50", r.quantile("httpx.net_us_p50", net, 0.5, 1e3), "us")
	r.set("httpx.rejected", float64(rejected)/nSweeps, "count")
	r.set("segments.explore_calls", float64(exploreCalls)/nSweeps, "count")
	r.set("segments.explore_rtt_ms_p50", r.quantile("segments.explore_rtt_ms_p50", explore, 0.5, 1e6), "ms")
	r.set("segments.server_us_p50", r.quantile("segments.server_us_p50", segServer, 0.5, 1e3), "us")
	for kind, suffix := range []string{"_cold", "_warm"} {
		n := float64(perKind[kind])
		r.set("elevsvc.profile_calls"+suffix, float64(profileCalls[kind])/n, "count")
		r.set("elevsvc.profile_rtt_ms_p50"+suffix, r.quantile("elevsvc.profile_rtt_ms_p50"+suffix, profile[kind], 0.5, 1e6), "ms")
		r.set("elevsvc.server_us_p50"+suffix, r.quantile("elevsvc.server_us_p50"+suffix, elevServer[kind], 0.5, 1e3), "us")
		var hits, lookups int64
		for _, s := range sweeps {
			if int(s.kind) == kind {
				hits += s.hits
				lookups += s.hits + s.misses
			}
		}
		if lookups > 0 {
			r.set("serving.profile_hit_ratio"+suffix, float64(hits)/float64(lookups), "ratio")
		}
		r.detail("serving.profile_lookups"+suffix, float64(lookups)/n, "count")
	}

	attempts, failovers := &dist{}, 0.0
	explorePhase, elevPhase, samples := &dist{}, &dist{}, &dist{}
	var sampleCount, sampleNanos int64
	for i, s := range sweeps {
		if s.kind == warm {
			attempts.add(float64(s.attempts + sweeps[i-1].attempts))
			failovers += float64(s.failovers)
			continue
		}
		var ex, el time.Duration
		for _, sp := range set.all {
			if sp.Start.Before(s.start) || sp.Start.After(s.end) {
				continue
			}
			for _, label := range mineCities {
				switch sp.Name {
				case "mine/" + label + "/explore":
					ex += sp.Duration()
				case "mine/" + label + "/elevation":
					el += sp.Duration()
				}
			}
		}
		explorePhase.addDur(ex)
		elevPhase.addDur(el)
		samples.add(float64(s.samples))
		sampleCount += s.samples
		sampleNanos += s.nanos
	}
	r.set("httpx.pool_attempts", attempts.q(0.5), "count")
	r.set("httpx.pool_failovers", failovers/float64(max(attempts.n(), 1)), "count")
	r.set("segments.explore_phase_ms", explorePhase.q(0.5)/1e6, "ms")
	r.set("segments.elevation_phase_ms", elevPhase.q(0.5)/1e6, "ms")
	r.set("dem.samples", samples.q(0.5), "count")
	if sampleCount > 0 {
		r.set("dem.sample_ns", float64(sampleNanos)/float64(sampleCount), "ns")
	}
}
