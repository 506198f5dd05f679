// Command elevmine runs the paper's Fig. 4 mining pipeline end to end over
// HTTP: it stands up the segment-explore service and the elevation API as
// real servers, populates the segment store from the synthetic world, then
// sweeps each city boundary with the grid miner and reports what it
// recovered.
//
// Both service clients run through internal/httpx pools, one per service
// over its one or more addresses (per-attempt timeouts, bounded retries
// with backoff, optional rate limit), and -faultrate injects a seeded
// schedule of transient 503s at the transport seam to demonstrate the sweep
// shrugging them off.
//
// Usage:
//
//	elevmine                       # mine every city at laptop scale
//	elevmine -city SF -grid 12     # one city, finer grid
//	elevmine -workers 16           # wider concurrent sweep
//	elevmine -faultrate 0.2        # flaky network demo (same output)
//	elevmine -serve :8080,:8081    # keep both services listening instead
//	elevmine -checkpoint dir -out mined.json   # crash-safe run
//	elevmine -checkpoint dir -resume ...       # continue after a crash
//
// With -checkpoint, every completed work unit (grid-cell explore, elevation
// profile, class) is journaled; a killed run rerun with -resume reuses the
// journaled results — no service call is re-issued, and the output is
// byte-identical to an uninterrupted run. SIGINT/SIGTERM drains gracefully:
// in-flight calls finish, the journal flushes, and the process exits 0 with
// a partial-result summary; a second signal aborts in-flight work.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/durable"
	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/obsboot"
	"elevprivacy/internal/segments"
	"elevprivacy/internal/terrain"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elevmine:", err)
		os.Exit(1)
	}
}

// worldSource routes elevation queries to the containing city's terrain.
type worldSource struct {
	cities []*terrain.City
	fields []*terrain.Terrain
}

func newWorldSource(cities []*terrain.City) (*worldSource, error) {
	ws := &worldSource{cities: cities}
	for _, c := range cities {
		tr, err := c.Terrain()
		if err != nil {
			return nil, err
		}
		ws.fields = append(ws.fields, tr)
	}
	return ws, nil
}

// ElevationAt implements dem.Source over the whole world.
func (ws *worldSource) ElevationAt(p geo.LatLng) (float64, error) {
	for i, c := range ws.cities {
		// Borough boxes may poke outside the city box (e.g. Baltimore), so
		// route by an expanded boundary.
		if c.Bounds.Expand(0.5, 0.5).Contains(p) {
			return ws.fields[i].ElevationAt(p)
		}
	}
	return 0, fmt.Errorf("%w: %v not covered by any city", dem.ErrOutOfBounds, p)
}

func run() error {
	var (
		cityFlag  = flag.String("city", "", "mine a single city (name or abbreviation; default all)")
		perCity   = flag.Int("segments", 120, "synthetic segments created per city")
		grid      = flag.Int("grid", 8, "miner grid divisions per side")
		samples   = flag.Int("samples", 100, "elevation samples per profile")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", segments.DefaultWorkers, "concurrent service calls per sweep phase")
		rps       = flag.Float64("rps", 0, "client-side rate limit in requests/sec per service (0 = unlimited)")
		faultRate = flag.Float64("faultrate", 0, "inject transient 503s at this probability per request (seeded)")
		serve     = flag.String("serve", "", "comma-separated listen addrs for segment,elevation services (keeps serving)")
		shards    = flag.Int("shards", 1, "in-process replicas per service; >1 mines through a consistent-hash pool")
		segAddrs  = flag.String("seg-addrs", "", "comma-separated external segment-service base URLs (skips in-process servers)")
		elevAddrs = flag.String("elev-addrs", "", "comma-separated external elevation-service base URLs (skips in-process servers)")
		shardIdx  = flag.Int("shard-index", 0, "this instance's shard index in -serve mode")
		shardCnt  = flag.Int("shard-count", 0, "total shards in the tier in -serve mode (0 = unsharded)")
		pprofOn   = flag.Bool("pprof", false, "mount /debug/pprof/ on both served services in -serve mode")
		ckptDir   = flag.String("checkpoint", "", "directory for the crash-safe work journal (enables resumable sweeps)")
		resume    = flag.Bool("resume", false, "reuse an existing checkpoint journal instead of starting fresh")
		outPath   = flag.String("out", "", "write the mined dataset as JSON to this path (atomic: never observed torn)")
	)
	obsFlags := obsboot.Register(nil)
	poolFlags := obsboot.RegisterPool(nil)
	journalFlags := obsboot.RegisterJournal(nil)
	flag.Parse()

	tel, err := obsFlags.Start("elevmine")
	if err != nil {
		return err
	}
	defer func() {
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "elevmine:", err)
		}
	}()

	world := terrain.World()
	cities := world
	if *cityFlag != "" {
		c, err := terrain.CityByName(world, *cityFlag)
		if err != nil {
			return err
		}
		cities = []*terrain.City{c}
	}

	// Populate the segment store.
	store := segments.NewStore()
	rng := rand.New(rand.NewSource(*seed))
	for _, c := range cities {
		if err := store.Populate(c.Bounds, *perCity, c.Abbrev, segments.DefaultPopulateConfig(), rng); err != nil {
			return err
		}
	}
	fmt.Printf("segment store: %d segments across %d cities\n", store.Len(), len(cities))

	source, err := newWorldSource(world)
	if err != nil {
		return err
	}

	if *serve != "" {
		if *shardCnt > 0 && (*shardIdx < 0 || *shardIdx >= *shardCnt) {
			return fmt.Errorf("-shard-index %d out of range for -shard-count %d", *shardIdx, *shardCnt)
		}
		return serveForever(*serve, store, source, *shardIdx, *shardCnt, *pprofOn)
	}
	if (*segAddrs == "") != (*elevAddrs == "") {
		return fmt.Errorf("-seg-addrs and -elev-addrs must be set together")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}

	// Resolve the serving tier: external addresses when given, otherwise
	// -shards in-process replicas of each service over real TCP. All shards
	// are full replicas of the same store and terrain, so routing is purely
	// cache affinity and any shard can answer any request.
	var segURLs, elevURLs []string
	if *segAddrs != "" {
		segURLs = splitAddrs(*segAddrs)
		elevURLs = splitAddrs(*elevAddrs)
	} else {
		for i := 0; i < *shards; i++ {
			segSrv, segURL, err := spawn(segments.NewServer(store, segments.WithShard(i, *shards)).Handler())
			if err != nil {
				return err
			}
			defer segSrv.Close()
			elevSrv, elevURL, err := spawn(elevsvc.NewServer(source, elevsvc.WithShard(i, *shards)).Handler())
			if err != nil {
				return err
			}
			defer elevSrv.Close()
			segURLs = append(segURLs, segURL)
			elevURLs = append(elevURLs, elevURL)
		}
	}

	// Both services go through consistent-hash pools, a pool of one for a
	// single address; the pools own retries, failover and the -rps limit.
	segPool, err := newPool(segURLs, "segments", poolFlags, *rps, *faultRate, *seed)
	if err != nil {
		return err
	}
	defer segPool.Close()
	elevPool, err := newPool(elevURLs, "elevation", poolFlags, *rps, *faultRate, *seed+1)
	if err != nil {
		return err
	}
	defer elevPool.Close()
	if len(segURLs) > 1 || len(elevURLs) > 1 {
		fmt.Printf("serving tier: %d segment shards, %d elevation shards\n", len(segURLs), len(elevURLs))
	}
	miner := segments.NewMiner(segments.NewPoolClient(segPool), elevsvc.NewPoolClient(elevPool))
	miner.GridRows = *grid
	miner.GridCols = *grid
	miner.Samples = *samples
	miner.Workers = *workers

	// Checkpointing: the journal makes every completed unit durable, so a
	// crashed (or drained) run rerun with -resume skips straight past the
	// work it already paid for.
	journal, err := obsboot.OpenJournal(*ckptDir, "elevmine.journal", *resume, journalFlags.SyncEvery)
	if err != nil {
		return err
	}
	defer journal.Close()
	miner.Checkpoint = journal
	if restored := journal.Restored(); restored > 0 {
		fmt.Printf("checkpoint: restored %d completed units from journal\n", restored)
	}
	// A resumed run reloads the previous run's metrics snapshot, so the
	// telemetry on /metrics and in the final meta file is cumulative across
	// the crash/resume boundary, matching the journal's view of the sweep.
	if *resume {
		if err := obsboot.RestoreRunMetrics(*ckptDir, "elevmine.meta"); err != nil {
			fmt.Fprintf(os.Stderr, "elevmine: previous run metrics not restored: %v\n", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	shutdown := durable.NotifyShutdown(ctx)
	defer shutdown.Stop()
	miner.Drain = shutdown.Draining
	ctx = shutdown.Context()

	classes := make(map[string]geo.BBox, len(cities))
	for _, c := range cities {
		classes[c.Name] = c.Bounds
	}
	start := time.Now()
	mined, sweepErr := miner.MineClassesPartial(ctx, classes)
	elapsed := time.Since(start).Round(time.Millisecond)

	perLabel := make(map[string]int, len(classes))
	for _, ms := range mined {
		perLabel[ms.Label]++
	}
	for _, c := range cities {
		fmt.Printf("%-18s mined %4d/%d segments\n", c.Name, perLabel[c.Name], *perCity)
	}
	fmt.Printf("total mined: %d segments in %v (grid %dx%d, top-%d per cell, %d workers)\n",
		len(mined), elapsed, *grid, *grid, segments.ExploreLimit, *workers)

	if *outPath != "" && (sweepErr == nil || sweepErr.Interrupted()) {
		if err := writeMined(*outPath, mined); err != nil {
			return err
		}
		fmt.Printf("wrote %d segments to %s\n", len(mined), *outPath)
	}
	cfg, err := json.Marshal(mineConfig{
		Grid: *grid, Samples: *samples, Seed: *seed, Workers: *workers, Mined: len(mined),
		Shards: len(segURLs),
		Pools: map[string][]httpx.EndpointStats{
			"segments":  segPool.Stats(),
			"elevation": elevPool.Stats(),
		},
	})
	if err != nil {
		return err
	}
	if err := obsboot.SaveRunMeta(*ckptDir, "elevmine.meta", obsboot.RunMeta{
		Tool:    "elevmine",
		Config:  cfg,
		Journal: journal.Stats(),
	}); err != nil {
		return err
	}

	if sweepErr != nil {
		if sweepErr.Interrupted() {
			// A graceful drain is a success with less work done: the journal
			// is flushed, so -resume picks up exactly where this run stopped.
			fmt.Printf("interrupted: %d classes pending, journal flushed — rerun with -resume to continue\n",
				len(sweepErr.PerClass))
			return nil
		}
		for _, ce := range sweepErr.PerClass {
			fmt.Fprintf(os.Stderr, "elevmine: class %s failed: %v\n", ce.Label, ce.Err)
		}
		return fmt.Errorf("%d of %d classes failed", len(sweepErr.PerClass), len(classes))
	}
	return nil
}

// mineConfig is the tool-specific config block inside the shared
// obsboot.RunMeta snapshot: enough to see at a glance what a journal
// belongs to.
type mineConfig struct {
	Grid    int   `json:"grid"`
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	Mined   int   `json:"mined"`
	Shards  int   `json:"shards,omitempty"`
	// Pools carries each service pool's per-endpoint transport stats.
	Pools map[string][]httpx.EndpointStats `json:"pools,omitempty"`
}

// writeMined writes the mined dataset as JSON, atomically: a crash mid-write
// leaves the previous file intact, never a torn one.
func writeMined(path string, mined []segments.MinedSegment) error {
	return durable.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(mined)
	})
}

// listen opens a loopback listener and returns its base URL.
func listen() (net.Listener, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return lis, "http://" + lis.Addr().String(), nil
}

// spawn serves handler on a fresh loopback listener, returning the server
// for shutdown and its base URL.
func spawn(handler http.Handler) (*http.Server, string, error) {
	lis, url, err := listen()
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(lis) }()
	return srv, url, nil
}

// splitAddrs parses a comma-separated address list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// newPool builds the consistent-hash endpoint pool a sweep talks through,
// over one address or many: per-endpoint breakers and health probes,
// pool-owned retries and failover, optional -rps self-pacing, and — for the
// -faultrate demo — a seeded fault-injecting transport underneath, so the
// output stays identical while the transport misbehaves.
func newPool(baseURLs []string, service string, pf *obsboot.PoolFlags, rps, faultRate float64, seed int64) (*httpx.Pool, error) {
	var transport http.RoundTripper = http.DefaultTransport
	if faultRate > 0 {
		ft := httpx.NewFaultTripper(transport)
		ft.Stub(httpx.MatchAll, httpx.RandomFaults(seed, 1<<16, faultRate, httpx.Fault{
			Delay:  2 * time.Millisecond,
			Status: http.StatusServiceUnavailable,
			Body:   "injected transient fault",
		})...)
		transport = ft
	}
	opts := append(pf.Options(service),
		// 8 attempts keeps even a -faultrate 0.3 schedule's unlucky runs
		// (p^7 per request) from exhausting the budget mid-demo.
		httpx.WithPoolPolicy(httpx.Policy{
			MaxAttempts:       8,
			PerAttemptTimeout: 10 * time.Second,
			BaseDelay:         25 * time.Millisecond,
			MaxDelay:          2 * time.Second,
			Multiplier:        2,
			Jitter:            0.2,
		}),
		httpx.WithPoolTransport(&http.Client{Transport: transport, Timeout: 30 * time.Second}),
		httpx.WithPoolJitterSeed(seed),
	)
	if rps > 0 {
		opts = append(opts, httpx.WithPoolLimiter(httpx.NewLimiter(rps, 10)))
	}
	return httpx.NewPool(baseURLs, opts...)
}

// serveForever runs both services on fixed addresses until interrupted.
// shardIdx/shardCnt tag the instance's identity inside a sharded tier
// (every shard is a full replica, so the index only names the instance on
// /healthz and /metrics). SIGINT/SIGTERM shuts both servers down gracefully
// and returns nil, so the deferred telemetry Close still runs — that is
// what flushes a shard's -trace-out file for the fleet merger.
func serveForever(addrs string, store *segments.Store, source dem.Source, shardIdx, shardCnt int, pprofOn bool) error {
	parts := strings.Split(addrs, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-serve wants two comma-separated addresses, got %q", addrs)
	}
	errc := make(chan error, 2)
	segSrv := &http.Server{
		Addr:              parts[0],
		Handler:           segments.NewServer(store, segments.WithShard(shardIdx, shardCnt), segments.WithPprof(pprofOn)).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	elevSrv := &http.Server{
		Addr:              parts[1],
		Handler:           elevsvc.NewServer(source, elevsvc.WithShard(shardIdx, shardCnt), elevsvc.WithPprof(pprofOn)).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { errc <- segSrv.ListenAndServe() }()
	go func() { errc <- elevSrv.ListenAndServe() }()
	if shardCnt > 0 {
		fmt.Printf("shard %d/%d: segment service on %s, elevation service on %s\n",
			shardIdx, shardCnt, parts[0], parts[1])
	} else {
		fmt.Printf("segment service on %s, elevation service on %s\n", parts[0], parts[1])
	}
	shutdown := durable.NotifyShutdown(context.Background())
	defer shutdown.Stop()
	select {
	case err := <-errc:
		return err
	case <-shutdown.Draining:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = segSrv.Shutdown(ctx)
		_ = elevSrv.Shutdown(ctx)
		fmt.Println("shutting down: both services drained")
		return nil
	}
}
