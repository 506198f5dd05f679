package terrain

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/geo"
)

func defaultParams() Params {
	return Params{
		Seed: 42, BaseMeters: 100, ReliefMeters: 50, FeatureKm: 2,
		Octaves: 4, Persistence: 0.5,
	}
}

func mustTerrain(t *testing.T, origin geo.LatLng, p Params) *Terrain {
	t.Helper()
	tr, err := New(origin, p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero feature", func(p *Params) { p.FeatureKm = 0 }},
		{"zero octaves", func(p *Params) { p.Octaves = 0 }},
		{"persistence 0", func(p *Params) { p.Persistence = 0 }},
		{"persistence 1", func(p *Params) { p.Persistence = 1 }},
		{"ridge negative", func(p *Params) { p.RidgeWeight = -0.1 }},
		{"ridge above 1", func(p *Params) { p.RidgeWeight = 1.1 }},
		{"negative relief", func(p *Params) { p.ReliefMeters = -5 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := defaultParams()
			tc.mutate(&p)
			if _, err := New(geo.LatLng{Lat: 40, Lng: -74}, p); err == nil {
				t.Error("New succeeded, want validation error")
			}
		})
	}
	if _, err := New(geo.LatLng{Lat: 95, Lng: 0}, defaultParams()); err == nil {
		t.Error("invalid origin accepted")
	}
}

func TestTerrainDeterminism(t *testing.T) {
	origin := geo.LatLng{Lat: 40, Lng: -74}
	a := mustTerrain(t, origin, defaultParams())
	b := mustTerrain(t, origin, defaultParams())
	for i := 0; i < 50; i++ {
		p := geo.LatLng{Lat: 40 + float64(i)*0.001, Lng: -74 + float64(i)*0.0007}
		ea, err := a.ElevationAt(p)
		if err != nil {
			t.Fatal(err)
		}
		eb, _ := b.ElevationAt(p)
		if ea != eb {
			t.Fatalf("same params disagree at %v: %f vs %f", p, ea, eb)
		}
	}
}

func TestTerrainSeedChangesField(t *testing.T) {
	origin := geo.LatLng{Lat: 40, Lng: -74}
	p1 := defaultParams()
	p2 := defaultParams()
	p2.Seed = 43
	a := mustTerrain(t, origin, p1)
	b := mustTerrain(t, origin, p2)
	var differ int
	for i := 0; i < 50; i++ {
		p := geo.LatLng{Lat: 40 + float64(i)*0.003, Lng: -74}
		ea, _ := a.ElevationAt(p)
		eb, _ := b.ElevationAt(p)
		if math.Abs(ea-eb) > 1 {
			differ++
		}
	}
	if differ < 25 {
		t.Errorf("different seeds produced near-identical fields (%d/50 differ)", differ)
	}
}

func TestTerrainStaysNearBase(t *testing.T) {
	origin := geo.LatLng{Lat: 40, Lng: -74}
	tr := mustTerrain(t, origin, defaultParams())
	f := func(a, b float64) bool {
		p := geo.LatLng{
			Lat: 40 + math.Mod(a, 0.2),
			Lng: -74 + math.Mod(b, 0.2),
		}
		e, err := tr.ElevationAt(p)
		if err != nil {
			return false
		}
		// base 100 ± relief 50 × (1 + default macro weight 1.3), clamped
		// at 0 (no ridge/slope/coast).
		return e >= 0 && e <= 100+50*(1+1.3)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTerrainContinuity(t *testing.T) {
	// Adjacent points 10 m apart must not jump more than a few meters:
	// elevation fields are smooth, not noisy.
	tr := mustTerrain(t, geo.LatLng{Lat: 40, Lng: -74}, defaultParams())
	p := geo.LatLng{Lat: 40.02, Lng: -74.01}
	prev, err := tr.ElevationAt(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p = p.Destination(67, 10) // 10 m steps
		e, err := tr.ElevationAt(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e-prev) > 5 {
			t.Fatalf("step %d: 10 m hop changed elevation by %f m", i, math.Abs(e-prev))
		}
		prev = e
	}
}

func TestTerrainInvalidCoordinate(t *testing.T) {
	tr := mustTerrain(t, geo.LatLng{Lat: 40, Lng: -74}, defaultParams())
	if _, err := tr.ElevationAt(geo.LatLng{Lat: 99, Lng: 0}); err == nil {
		t.Error("invalid coordinate accepted")
	}
}

func TestCoastClampsToSeaLevel(t *testing.T) {
	origin := geo.LatLng{Lat: 25.77, Lng: -80.19}
	p := defaultParams()
	p.CoastBearing = 90 // ocean due east
	p.CoastKm = 5
	tr := mustTerrain(t, origin, p)

	// 10 km east of origin is past the coastline: sea level.
	sea := origin.Destination(90, 10000)
	e, err := tr.ElevationAt(sea)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("offshore elevation = %f, want 0", e)
	}

	// 10 km west (inland) keeps full elevation.
	inland := origin.Destination(270, 10000)
	e, err = tr.ElevationAt(inland)
	if err != nil {
		t.Fatal(err)
	}
	if e < 20 {
		t.Errorf("inland elevation = %f, want near base", e)
	}
}

func TestSlopeTiltsField(t *testing.T) {
	origin := geo.LatLng{Lat: 38.85, Lng: -104.80}
	p := defaultParams()
	p.ReliefMeters = 0 // isolate the slope term
	p.SlopePerKm = 10
	p.SlopeBearing = 270 // climbs westward
	tr := mustTerrain(t, origin, p)

	west, _ := tr.ElevationAt(origin.Destination(270, 5000))
	east, _ := tr.ElevationAt(origin.Destination(90, 5000))
	if west-east < 90 || west-east > 110 {
		t.Errorf("10 km westward climb = %f m, want ~100", west-east)
	}
}

func TestRidgeWeightIncreasesVariance(t *testing.T) {
	origin := geo.LatLng{Lat: 38, Lng: -104}
	flatP := defaultParams()
	ridgeP := defaultParams()
	ridgeP.RidgeWeight = 1

	variance := func(tr *Terrain) float64 {
		var sum, sum2 float64
		const n = 400
		for i := 0; i < n; i++ {
			p := geo.LatLng{Lat: 38 + 0.0005*float64(i), Lng: -104}
			e, _ := tr.ElevationAt(p)
			sum += e
			sum2 += e * e
		}
		mean := sum / n
		return sum2/n - mean*mean
	}

	vFlat := variance(mustTerrain(t, origin, flatP))
	vRidge := variance(mustTerrain(t, origin, ridgeP))
	if vRidge <= vFlat {
		t.Errorf("ridged variance %f should exceed rolling variance %f", vRidge, vFlat)
	}
}

func TestRasterizeMatchesAnalyticField(t *testing.T) {
	origin := geo.LatLng{Lat: 40, Lng: -74}
	tr := mustTerrain(t, origin, defaultParams())
	bounds := geo.NewBBox(geo.LatLng{Lat: 40.0, Lng: -74.05}, geo.LatLng{Lat: 40.05, Lng: -74.0})
	raster, err := tr.Rasterize(bounds, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := geo.LatLng{Lat: 40.001 + 0.002*float64(i), Lng: -74.048 + 0.002*float64(i)}
		analytic, _ := tr.ElevationAt(p)
		sampled, err := raster.ElevationAt(p)
		if err != nil {
			t.Fatal(err)
		}
		// int16 quantization + bilinear vs analytic tolerance.
		if math.Abs(analytic-sampled) > 3 {
			t.Errorf("at %v: raster %f vs analytic %f", p, sampled, analytic)
		}
	}
}

// TestRasterizeTile pins the SRTM stand-in: the terrain rasterized into a
// full-resolution SRTM3 tile survives the .hgt codec byte for byte, and
// bilinear samples of the decoded tile along a line across it stay within
// int16 rounding plus interpolation over 3-arc-second posts of the
// analytic field.
func TestRasterizeTile(t *testing.T) {
	tr := mustTerrain(t, geo.LatLng{Lat: 40.5, Lng: -74.5}, defaultParams())
	const srtm3 = 1201
	tile, err := tr.RasterizeTile(40, -75, srtm3)
	if err != nil {
		t.Fatal(err)
	}
	if tile.Name() != "N40W075" {
		t.Errorf("tile name = %q", tile.Name())
	}
	var hgt bytes.Buffer
	if err := tile.WriteHGT(&hgt); err != nil {
		t.Fatal(err)
	}
	if hgt.Len() != 2*srtm3*srtm3 {
		t.Fatalf("hgt payload = %d bytes, want %d", hgt.Len(), 2*srtm3*srtm3)
	}
	back, err := dem.ReadHGT(bytes.NewReader(hgt.Bytes()), 40, -75)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteHGT(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hgt.Bytes(), again.Bytes()) {
		t.Fatal("tile does not survive WriteHGT/ReadHGT byte for byte")
	}

	const bound = 1.5 // meters: ≤0.5 m rounding plus interpolation over ~90 m posts
	var worst float64
	for i := 0; i <= 400; i++ {
		p := geo.LatLng{Lat: 40.05 + 0.00225*float64(i), Lng: -74.95 + 0.00225*float64(i)}
		got, err := back.ElevationAt(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tr.ElevationAt(p)
		worst = math.Max(worst, math.Abs(got-want))
	}
	if worst > bound {
		t.Errorf("decoded tile strays %.2f m from the terrain along the diagonal, want <= %.1f m", worst, bound)
	}
}

func TestNoiseRange(t *testing.T) {
	n := noise2{seed: 99}
	f := func(a, b float64) bool {
		x := math.Mod(a, 1000)
		y := math.Mod(b, 1000)
		v := n.at(x, y)
		return v >= -1-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFBMRange(t *testing.T) {
	n := noise2{seed: 7}
	f := func(a, b float64) bool {
		v := fbm(n, math.Mod(a, 500), math.Mod(b, 500), 6, 0.5)
		return v >= -1-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmoothEndpoints(t *testing.T) {
	if smooth(0) != 0 || smooth(1) != 1 {
		t.Errorf("smooth endpoints: %f, %f", smooth(0), smooth(1))
	}
	if s := smooth(0.5); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("smooth(0.5) = %f", s)
	}
}

// TestMacroReliefSeparatesNeighborhoods verifies the property borough
// classification depends on: 5 km-apart areas of one city have
// systematically different mean elevations.
func TestMacroReliefSeparatesNeighborhoods(t *testing.T) {
	origin := geo.LatLng{Lat: 37.76, Lng: -122.44}
	tr := mustTerrain(t, origin, defaultParams())

	meanAround := func(center geo.LatLng) float64 {
		var sum float64
		const n = 100
		for i := 0; i < n; i++ {
			p := center.Destination(float64(i*7%360), float64(i%10)*120)
			e, err := tr.ElevationAt(p)
			if err != nil {
				t.Fatal(err)
			}
			sum += e
		}
		return sum / n
	}

	// Sample several 1 km neighborhoods spread across the city; their means
	// must not all collapse to the base elevation.
	var spread float64
	var means []float64
	for i := 0; i < 6; i++ {
		m := meanAround(origin.Destination(float64(i)*60, 5000+float64(i)*1500))
		means = append(means, m)
	}
	minM, maxM := means[0], means[0]
	for _, m := range means {
		minM = math.Min(minM, m)
		maxM = math.Max(maxM, m)
	}
	spread = maxM - minM
	if spread < 15 {
		t.Errorf("neighborhood mean spread = %.1f m (means %v); macro relief too weak for borough separation", spread, means)
	}
}

func TestMacroParamsValidation(t *testing.T) {
	p := defaultParams()
	p.MacroKm = -1
	if _, err := New(geo.LatLng{Lat: 40, Lng: -74}, p); err == nil {
		t.Error("negative MacroKm accepted")
	}
	p = defaultParams()
	p.MacroWeight = -0.5
	if _, err := New(geo.LatLng{Lat: 40, Lng: -74}, p); err == nil {
		t.Error("negative MacroWeight accepted")
	}
}

func TestMacroDefaultsApplied(t *testing.T) {
	tr := mustTerrain(t, geo.LatLng{Lat: 40, Lng: -74}, defaultParams())
	got := tr.params
	if got.MacroKm != 6*defaultParams().FeatureKm {
		t.Errorf("MacroKm default = %g", got.MacroKm)
	}
	if got.MacroWeight != 2.0 {
		t.Errorf("MacroWeight default = %g", got.MacroWeight)
	}
}
