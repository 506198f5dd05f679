package scenario

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/durable"
	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/segments"
	"elevprivacy/internal/terrain"
)

// envStarts counts mining environments stood up this process. Tests use it
// to prove dedup: a resumed or cache-served sweep starts zero new
// environments and therefore issues zero HTTP calls.
var envStarts atomic.Int64

// env is the per-mine-unit service environment: a populated segment store
// and an elevation source served over real loopback TCP, with an httpx pool
// of one in front of each — the same topology cmd/elevmine builds for one
// address, scoped to one work unit so HTTP attempts and sweep checkpoints
// are attributable to exactly one mine config.
type env struct {
	segSrv, elevSrv   *http.Server
	segPool, elevPool *httpx.Pool
	miner             *segments.Miner
	classes           map[string]geo.BBox
	journalPath       string
	journal           *durable.Journal
}

// multiSource routes elevation queries to the containing city's terrain.
// Borough boxes may poke outside the city box, so routing uses an expanded
// boundary, matching cmd/elevmine.
type multiSource struct {
	cities []*terrain.City
	fields []*terrain.Terrain
}

func newMultiSource(cities []*terrain.City) (*multiSource, error) {
	ms := &multiSource{cities: cities}
	for _, c := range cities {
		tr, err := c.Terrain()
		if err != nil {
			return nil, err
		}
		ms.fields = append(ms.fields, tr)
	}
	return ms, nil
}

// ElevationAt implements dem.Source.
func (ms *multiSource) ElevationAt(p geo.LatLng) (float64, error) {
	for i, c := range ms.cities {
		if c.Bounds.Expand(0.5, 0.5).Contains(p) {
			return ms.fields[i].ElevationAt(p)
		}
	}
	return 0, fmt.Errorf("%w: %v not covered", dem.ErrOutOfBounds, p)
}

// startEnv builds the mining environment for one scenario's mine config.
// subJournal, when non-empty, is the path of the mine unit's own checkpoint
// journal — per-unit isolation matters because the miner's cell keys don't
// encode population or seed, so two mine configs sharing one journal would
// cross-contaminate. The journal is opened resume-style (existing entries
// kept): a drained mine unit picks its cells back up on the next run.
func startEnv(sc *Scenario, rateLimit float64, subJournal string, drain <-chan struct{}) (*env, error) {
	world := terrain.World()
	store := segments.NewStore()
	rng := rand.New(rand.NewSource(sc.Seed))
	classes := make(map[string]geo.BBox)
	var sourceCities []*terrain.City

	switch sc.ThreatModel {
	case TM2:
		city, err := terrain.CityByName(world, sc.City)
		if err != nil {
			return nil, err
		}
		sourceCities = []*terrain.City{city}
		for i := range city.Boroughs {
			b := &city.Boroughs[i]
			if err := store.Populate(b.Bounds, sc.Population, b.Name, segments.DefaultPopulateConfig(), rng); err != nil {
				return nil, err
			}
			classes[b.Name] = b.Bounds
		}
	case TM3:
		for _, name := range sc.Cities { // sorted by Normalize: deterministic rng order
			city, err := terrain.CityByName(world, name)
			if err != nil {
				return nil, err
			}
			sourceCities = append(sourceCities, city)
			if err := store.Populate(city.Bounds, sc.Population, city.Abbrev, segments.DefaultPopulateConfig(), rng); err != nil {
				return nil, err
			}
			classes[city.Name] = city.Bounds
		}
	default:
		return nil, fmt.Errorf("scenario: threat model %s does not mine", sc.ThreatModel)
	}

	source, err := newMultiSource(sourceCities)
	if err != nil {
		return nil, err
	}

	segLis, segURL, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	elevLis, elevURL, err := listenLoopback()
	if err != nil {
		segLis.Close()
		return nil, err
	}
	e := &env{
		segSrv:  &http.Server{Handler: segments.NewServer(store).Handler(), ReadHeaderTimeout: 5 * time.Second},
		elevSrv: &http.Server{Handler: elevsvc.NewServer(source).Handler(), ReadHeaderTimeout: 5 * time.Second},
		classes: classes,
	}
	go func() { _ = e.segSrv.Serve(segLis) }()
	go func() { _ = e.elevSrv.Serve(elevLis) }()

	if e.segPool, err = minePool(segURL, "scenario_segments", rateLimit); err == nil {
		e.elevPool, err = minePool(elevURL, "scenario_elevation", rateLimit)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.miner = segments.NewMiner(segments.NewPoolClient(e.segPool), elevsvc.NewPoolClient(e.elevPool))
	e.miner.GridRows = sc.Grid
	e.miner.GridCols = sc.Grid
	e.miner.Samples = sc.Samples
	e.miner.Drain = drain

	if subJournal != "" {
		j, err := durable.OpenJournal(subJournal)
		if err != nil {
			e.close()
			return nil, err
		}
		e.journal = j
		e.journalPath = subJournal
		e.miner.Checkpoint = j
	}
	envStarts.Add(1)
	return e, nil
}

// attempts sums the HTTP attempts both pools issued.
func (e *env) attempts() int64 {
	var n int64
	for _, p := range []*httpx.Pool{e.segPool, e.elevPool} {
		for _, s := range p.Stats() {
			n += s.Requests
		}
	}
	return n
}

// close tears the environment down, keeping the sub-journal on disk (a
// drained unit resumes from it).
func (e *env) close() {
	if e.segSrv != nil {
		_ = e.segSrv.Close()
	}
	if e.elevSrv != nil {
		_ = e.elevSrv.Close()
	}
	e.segPool.Close()
	e.elevPool.Close()
	if e.journal != nil {
		_ = e.journal.Close()
	}
}

// discardJournal removes the sub-journal after a successful mine: the cached
// artifact supersedes it, and keeping it around would only grow the
// checkpoint dir. Removal failure is cosmetic and ignored.
func (e *env) discardJournal() {
	if e.journalPath != "" {
		_ = os.Remove(e.journalPath)
	}
}

// minePool builds the pool of one a mine sweep talks through: the pool's
// default retry policy, a 16-failure/5 s breaker, per-service metrics, and
// an optional rate limit.
func minePool(url, service string, rps float64) (*httpx.Pool, error) {
	opts := []httpx.PoolOption{
		httpx.WithPoolBreaker(16, 5*time.Second),
		httpx.WithPoolMetrics(service),
	}
	if rps > 0 {
		opts = append(opts, httpx.WithPoolLimiter(httpx.NewLimiter(rps, 10)))
	}
	return httpx.NewPool([]string{url}, opts...)
}

// listenLoopback opens a loopback listener and returns its base URL.
func listenLoopback() (net.Listener, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return lis, "http://" + lis.Addr().String(), nil
}

// subJournalPath names the mine unit's checkpoint journal inside the
// checkpoint dir ("" when checkpointing is off).
func subJournalPath(ckptDir, mineKey string) string {
	if ckptDir == "" {
		return ""
	}
	return filepath.Join(ckptDir, filepath.Base("mine-"+mineKey[len("mine/"):])+".journal")
}
