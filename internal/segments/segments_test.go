package segments

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/terrain"
)

func cityBounds() geo.BBox {
	return geo.NewBBox(geo.LatLng{Lat: 38.80, Lng: -77.15}, geo.LatLng{Lat: 39.00, Lng: -76.90})
}

func seg(id string, pop int, pts ...geo.LatLng) Segment {
	return Segment{ID: id, Name: "seg " + id, Path: geo.Path(pts), Popularity: pop}
}

func TestStoreAddValidation(t *testing.T) {
	s := NewStore()
	if err := s.Add(Segment{ID: "", Path: geo.Path{{}, {}}}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := s.Add(seg("a", 1, geo.LatLng{Lat: 1, Lng: 1})); err == nil {
		t.Error("single-point path accepted")
	}
	if err := s.Add(seg("a", 1, geo.LatLng{Lat: 1, Lng: 1}, geo.LatLng{Lat: 1.001, Lng: 1})); err != nil {
		t.Errorf("valid segment rejected: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreAddReplacesByID(t *testing.T) {
	s := NewStore()
	p := geo.Path{{Lat: 1, Lng: 1}, {Lat: 1.001, Lng: 1}}
	_ = s.Add(Segment{ID: "x", Name: "first", Path: p, Popularity: 1})
	_ = s.Add(Segment{ID: "x", Name: "second", Path: p, Popularity: 9})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if got := s.segments[s.byID["x"]]; got.Name != "second" || got.Popularity != 9 {
		t.Errorf("stored = %+v", got)
	}
}

func TestExploreEncapsulationAndRanking(t *testing.T) {
	s := NewStore()
	inside1 := seg("in1", 50, geo.LatLng{Lat: 0.2, Lng: 0.2}, geo.LatLng{Lat: 0.3, Lng: 0.3})
	inside2 := seg("in2", 90, geo.LatLng{Lat: 0.5, Lng: 0.5}, geo.LatLng{Lat: 0.6, Lng: 0.6})
	straddle := seg("out1", 999, geo.LatLng{Lat: 0.9, Lng: 0.9}, geo.LatLng{Lat: 1.5, Lng: 1.5})
	outside := seg("out2", 999, geo.LatLng{Lat: 2, Lng: 2}, geo.LatLng{Lat: 2.1, Lng: 2.1})
	for _, sg := range []Segment{inside1, inside2, straddle, outside} {
		if err := s.Add(sg); err != nil {
			t.Fatal(err)
		}
	}

	bounds := geo.NewBBox(geo.LatLng{Lat: 0, Lng: 0}, geo.LatLng{Lat: 1, Lng: 1})
	got := s.Explore(bounds, 10)
	if len(got) != 2 {
		t.Fatalf("Explore returned %d segments, want 2", len(got))
	}
	// Sorted by popularity descending.
	if got[0].ID != "in2" || got[1].ID != "in1" {
		t.Errorf("order = %s, %s; want in2, in1", got[0].ID, got[1].ID)
	}
}

func TestExploreTopTenLimit(t *testing.T) {
	s := NewStore()
	bounds := geo.NewBBox(geo.LatLng{Lat: 0, Lng: 0}, geo.LatLng{Lat: 1, Lng: 1})
	for i := 0; i < 25; i++ {
		lat := 0.1 + float64(i)*0.03
		err := s.Add(Segment{
			ID:         string(rune('a'+i%26)) + "-seg",
			Name:       "s",
			Path:       geo.Path{{Lat: lat, Lng: 0.5}, {Lat: lat + 0.01, Lng: 0.5}},
			Popularity: i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := s.Explore(bounds, 0) // 0 => service default
	if len(got) != ExploreLimit {
		t.Errorf("Explore returned %d, want %d", len(got), ExploreLimit)
	}
	// Asking for more than the limit is clamped.
	got = s.Explore(bounds, 99)
	if len(got) != ExploreLimit {
		t.Errorf("Explore(k=99) returned %d, want %d", len(got), ExploreLimit)
	}
	// Highest popularity (24) must be first.
	if got[0].Popularity != 24 {
		t.Errorf("top popularity = %d, want 24", got[0].Popularity)
	}
}

func TestExploreDeterministicTieBreak(t *testing.T) {
	s := NewStore()
	bounds := geo.NewBBox(geo.LatLng{Lat: 0, Lng: 0}, geo.LatLng{Lat: 1, Lng: 1})
	p := geo.Path{{Lat: 0.4, Lng: 0.4}, {Lat: 0.5, Lng: 0.5}}
	_ = s.Add(Segment{ID: "b", Path: p, Popularity: 5})
	_ = s.Add(Segment{ID: "a", Path: p, Popularity: 5})
	got := s.Explore(bounds, 10)
	if got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("tie break order = %s, %s; want a, b", got[0].ID, got[1].ID)
	}
}

func TestExploreReturnsCopies(t *testing.T) {
	s := NewStore()
	p := geo.Path{{Lat: 0.4, Lng: 0.4}, {Lat: 0.5, Lng: 0.5}}
	_ = s.Add(Segment{ID: "a", Path: p, Popularity: 5})
	bounds := geo.NewBBox(geo.LatLng{Lat: 0, Lng: 0}, geo.LatLng{Lat: 1, Lng: 1})
	got := s.Explore(bounds, 10)
	got[0].Path[0].Lat = 99
	again := s.Explore(bounds, 10)
	if again[0].Path[0].Lat == 99 {
		t.Error("Explore leaked internal path storage")
	}
}

func TestPopulateGeneratesContainedSegments(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(3))
	if err := s.Populate(cityBounds(), 40, "wdc", DefaultPopulateConfig(), rng); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
	// Everything must be recoverable by exploring the full boundary in a
	// fine grid (top-10 per cell).
	// A grid sweep recovers a healthy share; segments straddling cell
	// boundaries are legitimately lost (the paper notes the same effect).
	var found int
	for _, cell := range cityBounds().Grid(10, 10) {
		found += len(s.Explore(cell, ExploreLimit))
	}
	if found < 8 {
		t.Errorf("only %d/40 segments recoverable from a 10x10 grid sweep", found)
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	s := NewStore()
	bounds := cityBounds()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			_ = s.Populate(bounds, 20, string(rune('a'+w)), DefaultPopulateConfig(), rng)
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Explore(bounds, 10)
			}
		}()
	}
	wg.Wait()
}

// newMiningStack stands up both services plus a miner against a real city
// terrain, returning the miner.
func newMiningStack(t *testing.T, store *Store) *Miner {
	t.Helper()
	world := terrain.World()
	wdc, err := terrain.CityByName(world, "WDC")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wdc.Terrain()
	if err != nil {
		t.Fatal(err)
	}

	segSrv := httptest.NewServer(NewServer(store, WithLogf(t.Logf)).Handler())
	t.Cleanup(segSrv.Close)
	elevSrv := httptest.NewServer(elevsvc.NewServer(tr, elevsvc.WithLogf(t.Logf)).Handler())
	t.Cleanup(elevSrv.Close)

	return NewMiner(
		NewClient(segSrv.URL, segSrv.Client()),
		elevsvc.NewClient(elevSrv.URL, elevSrv.Client()),
	)
}

func TestMineBoundaryEndToEnd(t *testing.T) {
	store := NewStore()
	rng := rand.New(rand.NewSource(11))
	if err := store.Populate(cityBounds(), 60, "wdc", DefaultPopulateConfig(), rng); err != nil {
		t.Fatal(err)
	}

	miner := newMiningStack(t, store)
	miner.Samples = 50
	mined, err := miner.MineBoundary(context.Background(), "Washington DC", cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("mined nothing")
	}
	seen := map[string]bool{}
	for _, ms := range mined {
		if ms.Label != "Washington DC" {
			t.Errorf("label = %q", ms.Label)
		}
		if len(ms.Elevations) != 50 {
			t.Errorf("%s: %d elevation samples, want 50", ms.ID, len(ms.Elevations))
		}
		if seen[ms.ID] {
			t.Errorf("duplicate segment %s", ms.ID)
		}
		seen[ms.ID] = true
		for _, e := range ms.Elevations {
			if e < 0 || e > 400 {
				t.Errorf("%s: implausible WDC elevation %f", ms.ID, e)
			}
		}
	}
	t.Logf("mined %d/60 segments (grid 8x8, top-10 per cell)", len(mined))
}

func TestMineClassesMultipleLabels(t *testing.T) {
	store := NewStore()
	rng := rand.New(rand.NewSource(21))
	north := geo.NewBBox(geo.LatLng{Lat: 38.90, Lng: -77.15}, geo.LatLng{Lat: 39.00, Lng: -76.90})
	south := geo.NewBBox(geo.LatLng{Lat: 38.80, Lng: -77.15}, geo.LatLng{Lat: 38.90, Lng: -76.90})
	if err := store.Populate(north, 15, "n", DefaultPopulateConfig(), rng); err != nil {
		t.Fatal(err)
	}
	if err := store.Populate(south, 15, "s", DefaultPopulateConfig(), rng); err != nil {
		t.Fatal(err)
	}

	miner := newMiningStack(t, store)
	miner.Samples = 20
	miner.GridRows, miner.GridCols = 4, 4
	mined, err := miner.MineClasses(context.Background(), map[string]geo.BBox{
		"North": north,
		"South": south,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, ms := range mined {
		labels[ms.Label]++
	}
	if labels["North"] == 0 || labels["South"] == 0 {
		t.Errorf("label distribution = %v", labels)
	}
}

func TestMinerValidation(t *testing.T) {
	miner := NewMiner(nil, nil)
	miner.GridRows = 0
	if _, err := miner.MineBoundary(context.Background(), "x", cityBounds()); err == nil {
		t.Error("grid 0 accepted")
	}
	miner = NewMiner(nil, nil)
	miner.Samples = 1
	if _, err := miner.MineBoundary(context.Background(), "x", cityBounds()); err == nil {
		t.Error("samples 1 accepted")
	}
}

func TestServerRejectsBadBounds(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), WithLogf(t.Logf)).Handler())
	defer srv.Close()

	for _, query := range []string{
		"sw_lat=abc&sw_lng=1&ne_lat=2&ne_lng=2",
		"sw_lat=2&sw_lng=2&ne_lat=1&ne_lng=1", // inverted
		"sw_lat=91&sw_lng=0&ne_lat=92&ne_lng=1",
		"", // all missing
	} {
		resp, err := http.Get(srv.URL + "/v1/segments/explore?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", query, resp.StatusCode)
		}
	}
}

func TestClientSurfacesAPIError(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), WithLogf(t.Logf)).Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	_, err := client.Explore(context.Background(), geo.BBox{
		SW: geo.LatLng{Lat: 95, Lng: 0}, NE: geo.LatLng{Lat: 96, Lng: 1},
	})
	if err == nil {
		t.Fatal("invalid bounds accepted")
	}
	// Client-side validation fires before the network call.
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Fatalf("expected local validation error, got API error %v", apiErr)
	}
}

// TestExploreNonJSONErrorBodyBecomesAPIError pins the fix for the
// proxy-error bug: a plain-text 502 used to surface as a JSON decode
// failure instead of an *APIError carrying the HTTP code.
func TestExploreNonJSONErrorBodyBecomesAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "Bad Gateway", http.StatusBadGateway)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	_, err := client.Explore(context.Background(), cityBounds())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.HTTPCode != http.StatusBadGateway || apiErr.Status != "HTTP_502" {
		t.Errorf("got %+v, want HTTP_502 with code 502", apiErr)
	}
}

func TestClientEmptyResult(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), WithLogf(t.Logf)).Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	got, err := client.Explore(context.Background(), cityBounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty store returned %d segments", len(got))
	}
}

func TestSegmentServerHealthz(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), WithLogf(t.Logf)).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestClientNormalizesTrailingSlash pins the base-URL fix: a configured
// address like "http://host:port/" used to produce "//v1/..." request paths
// that miss the mux routes entirely.
func TestClientNormalizesTrailingSlash(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), WithLogf(t.Logf)).Handler())
	defer srv.Close()
	client := NewClient(srv.URL+"///", srv.Client())

	if _, err := client.Explore(context.Background(), geo.BBox{
		SW: geo.LatLng{Lat: 1, Lng: 1}, NE: geo.LatLng{Lat: 2, Lng: 2},
	}); err != nil {
		t.Fatalf("explore through slash-suffixed base URL: %v", err)
	}
}
