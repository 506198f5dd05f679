package activity

import (
	"math"
	"math/rand"
	"testing"

	"elevprivacy/internal/geo"
	"elevprivacy/internal/terrain"
)

func testBounds() geo.BBox {
	return geo.NewBBox(geo.LatLng{Lat: 38.80, Lng: -77.15}, geo.LatLng{Lat: 39.00, Lng: -76.90})
}

func newGen(t *testing.T, seed int64) *RouteGenerator {
	t.Helper()
	g, err := NewRouteGenerator(testBounds(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRouteGeneratorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRouteGenerator(geo.BBox{}, rng); err == nil {
		t.Error("zero bounds accepted")
	}
	if _, err := NewRouteGenerator(testBounds(), nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestWanderStaysInBounds(t *testing.T) {
	g := newGen(t, 2)
	for trial := 0; trial < 10; trial++ {
		path := g.Wander(5000)
		if len(path) < 2 {
			t.Fatalf("trial %d: path too short: %d", trial, len(path))
		}
		for i, p := range path {
			if !testBounds().Contains(p) {
				t.Fatalf("trial %d: vertex %d (%v) escaped bounds", trial, i, p)
			}
		}
	}
}

func TestWanderLengthApproximatesRequest(t *testing.T) {
	g := newGen(t, 3)
	for _, want := range []float64{1000, 3000, 8000} {
		path := g.Wander(want)
		var got float64
		for i := 1; i < len(path); i++ {
			got += path[i-1].DistanceMeters(path[i])
		}
		// Boundary reflections can shorten the walk, but not grossly.
		if got < want*0.5 || got > want*1.5 {
			t.Errorf("requested %0.f m, walked %0.f m", want, got)
		}
	}
}

func TestWanderStepSpacing(t *testing.T) {
	g := newGen(t, 4)
	path := g.Wander(3000)
	for i := 1; i < len(path); i++ {
		d := path[i-1].DistanceMeters(path[i])
		if d > StepMeters+1 {
			t.Fatalf("step %d spans %f m > step size", i, d)
		}
	}
}

func TestLoopClosesAndWobbles(t *testing.T) {
	g := newGen(t, 5)
	center := testBounds().Center()
	loop := g.Loop(center, 800)
	if len(loop) < 10 {
		t.Fatalf("loop too coarse: %d vertices", len(loop))
	}
	if loop[0].DistanceMeters(loop[len(loop)-1]) > 1 {
		t.Errorf("loop does not close: %f m gap", loop[0].DistanceMeters(loop[len(loop)-1]))
	}
	// Vertices must be near the requested radius but not exactly circular.
	var minR, maxR float64 = math.Inf(1), 0
	for _, p := range loop {
		r := center.DistanceMeters(p)
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if minR < 400 || maxR > 1600 {
		t.Errorf("radius range [%f, %f] too far from 800", minR, maxR)
	}
	if maxR-minR < 10 {
		t.Error("loop is a perfect circle; expected organic wobble")
	}
}

func TestOutAndBackSymmetry(t *testing.T) {
	g := newGen(t, 6)
	start := testBounds().Center()
	path := g.OutAndBack(start, 45, 1500)
	if path[0] != start {
		t.Errorf("path starts at %v, want %v", path[0], start)
	}
	last := path[len(path)-1]
	if last.DistanceMeters(start) > 1 {
		t.Errorf("out-and-back ends %f m from start", last.DistanceMeters(start))
	}
	// The return leg retraces the out leg.
	n := len(path)
	for i := 0; i < n/2; i++ {
		if path[i] != path[n-1-i] {
			t.Fatalf("vertex %d not mirrored", i)
		}
	}
}

func TestJitterPreservesShape(t *testing.T) {
	g := newGen(t, 7)
	base := g.Wander(4000)
	jit := g.Jitter(base, 25)
	if len(jit) != len(base) {
		t.Fatalf("jitter changed vertex count: %d vs %d", len(jit), len(base))
	}
	var total float64
	for i := range base {
		d := base[i].DistanceMeters(jit[i])
		total += d
		if d > 200 {
			t.Errorf("vertex %d displaced %f m", i, d)
		}
	}
	if total == 0 {
		t.Error("jitter displaced nothing")
	}
	for _, p := range jit {
		if !testBounds().Contains(p) {
			t.Error("jittered vertex escaped bounds")
		}
	}
}

func TestRouteGeneratorDeterminism(t *testing.T) {
	a := newGen(t, 11)
	b := newGen(t, 11)
	pa := a.Wander(3000)
	pb := b.Wander(3000)
	if len(pa) != len(pb) {
		t.Fatal("same seed, different lengths")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed diverges at vertex %d", i)
		}
	}
}

func TestSimulateAthleteTableI(t *testing.T) {
	regions := terrain.AthleteWorld()
	counts := map[string]int{
		"Washington DC": 30,
		"Orlando":       20,
		"New York City": 12,
		"San Diego":     5,
	}
	acts, err := SimulateAthlete(regions, counts, DefaultAthleteConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for i := range acts {
		got[acts[i].Region]++
		if len(acts[i].Path) != len(acts[i].Elevations) {
			t.Fatalf("%s: %d vertices but %d elevations", acts[i].Name, len(acts[i].Path), len(acts[i].Elevations))
		}
		if len(acts[i].Path) < 10 {
			t.Errorf("%s: suspiciously short path (%d)", acts[i].Name, len(acts[i].Path))
		}
	}
	for region, want := range counts {
		if got[region] != want {
			t.Errorf("%s: %d activities, want %d", region, got[region], want)
		}
	}
}

func TestSimulateAthleteDefaultsToTargets(t *testing.T) {
	regions := terrain.AthleteWorld()
	// Trim targets for test speed.
	for _, r := range regions {
		r.TargetSegments = 3
	}
	acts, err := SimulateAthlete(regions, nil, DefaultAthleteConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 12 {
		t.Errorf("got %d activities, want 12", len(acts))
	}
}

func TestSimulateAthleteValidation(t *testing.T) {
	if _, err := SimulateAthlete(nil, nil, DefaultAthleteConfig(), 1); err == nil {
		t.Error("empty regions accepted")
	}
	bad := DefaultAthleteConfig()
	bad.FavoriteProb = 1.5
	if _, err := SimulateAthlete(terrain.AthleteWorld(), map[string]int{"Orlando": 1}, bad, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSimulateAthleteElevationsMatchTerrain(t *testing.T) {
	regions := terrain.AthleteWorld()
	counts := map[string]int{"San Diego": 8}
	acts, err := SimulateAthlete(regions, counts, DefaultAthleteConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := terrain.CityByName(regions, "SD")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sd.Terrain()
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range acts {
		for i, p := range act.Path {
			want, err := tr.ElevationAt(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(act.Elevations[i]-want) > 1e-9 {
				t.Fatalf("%s vertex %d: elevation %f, terrain %f", act.Name, i, act.Elevations[i], want)
			}
		}
	}
}

func TestPickAnchorDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	counts := map[anchorKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[pickAnchor(rng)]++
	}
	// Survey marginals: 51/36/3/10.
	checks := []struct {
		kind anchorKind
		want float64
	}{
		{anchorHome, 0.51}, {anchorSchool, 0.36}, {anchorWork, 0.03}, {anchorElsewhere, 0.10},
	}
	for _, c := range checks {
		got := float64(counts[c.kind]) / n
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("anchor %d frequency = %f, want %f±0.02", c.kind, got, c.want)
		}
	}
}
