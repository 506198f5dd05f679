package terrain

import (
	"errors"
	"fmt"
	"math"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/geo"
)

// Params is the elevation signature of a synthetic terrain. Parameters are
// chosen per city to mimic the real city's character (base altitude, hill
// amplitude, how jagged the hills are, coastal flattening).
type Params struct {
	// Seed decorrelates terrains with otherwise identical parameters.
	Seed uint64
	// BaseMeters is the mean elevation.
	BaseMeters float64
	// ReliefMeters scales the hill amplitude around the base.
	ReliefMeters float64
	// FeatureKm is the horizontal size of the dominant terrain features.
	FeatureKm float64
	// Octaves is the number of fBm octaves (detail levels).
	Octaves int
	// Persistence is the per-octave amplitude decay in (0, 1).
	Persistence float64
	// RidgeWeight in [0, 1] blends ridged noise into the fBm for
	// mountainous skylines (0 = rolling hills, 1 = sharp ridges).
	RidgeWeight float64
	// CoastBearing, when CoastKm > 0, is the compass direction (degrees) in
	// which the ocean lies from the terrain origin.
	CoastBearing float64
	// CoastKm is the distance from the origin to the coastline; elevation
	// attenuates toward it and clamps to ~0 beyond it. Zero disables.
	CoastKm float64
	// SlopePerKm adds a constant regional tilt (meters per km) along
	// SlopeBearing, emulating piedmont cities that climb toward mountains.
	SlopePerKm   float64
	SlopeBearing float64
	// MacroKm is the horizontal scale of neighborhood-level relief — the
	// low-frequency component that makes one part of a city sit higher
	// than another (downtown valleys, hillside districts). Zero selects
	// the default 6×FeatureKm.
	MacroKm float64
	// MacroWeight scales the macro component relative to ReliefMeters.
	// Zero selects the default 2.0; boroughs of one city are only
	// distinguishable because of this term.
	MacroWeight float64
}

// withDefaults returns the params with zero-value macro fields resolved.
func (p Params) withDefaults() Params {
	if p.MacroKm == 0 {
		p.MacroKm = 6 * p.FeatureKm
	}
	if p.MacroWeight == 0 {
		p.MacroWeight = 2.0
	}
	return p
}

// validate reports the first problem with the parameter set.
func (p Params) validate() error {
	switch {
	case p.FeatureKm <= 0:
		return fmt.Errorf("terrain: FeatureKm must be positive, got %g", p.FeatureKm)
	case p.Octaves < 1:
		return fmt.Errorf("terrain: Octaves must be >= 1, got %d", p.Octaves)
	case p.Persistence <= 0 || p.Persistence >= 1:
		return fmt.Errorf("terrain: Persistence must be in (0,1), got %g", p.Persistence)
	case p.RidgeWeight < 0 || p.RidgeWeight > 1:
		return fmt.Errorf("terrain: RidgeWeight must be in [0,1], got %g", p.RidgeWeight)
	case p.ReliefMeters < 0:
		return fmt.Errorf("terrain: ReliefMeters must be >= 0, got %g", p.ReliefMeters)
	case p.MacroKm < 0:
		return fmt.Errorf("terrain: MacroKm must be >= 0, got %g", p.MacroKm)
	case p.MacroWeight < 0:
		return fmt.Errorf("terrain: MacroWeight must be >= 0, got %g", p.MacroWeight)
	}
	return nil
}

// Terrain is an analytic, deterministic elevation field anchored at an
// origin coordinate. It implements dem.Source over the whole globe (the
// field is defined everywhere; callers bound it with a BBox if needed).
type Terrain struct {
	params Params
	origin geo.LatLng
	noise  noise2
	// kmPerDegLng is precomputed at the origin latitude.
	kmPerDegLng float64
}

const kmPerDegLat = 111.32

// New creates a terrain anchored at origin.
func New(origin geo.LatLng, params Params) (*Terrain, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if !origin.Valid() {
		return nil, fmt.Errorf("terrain: invalid origin %v", origin)
	}
	params = params.withDefaults()
	return &Terrain{
		params:      params,
		origin:      origin,
		noise:       noise2{seed: mix64(params.Seed)},
		kmPerDegLng: kmPerDegLat * math.Cos(origin.Lat*math.Pi/180),
	}, nil
}

var _ dem.Source = (*Terrain)(nil)

// ElevationAt evaluates the analytic elevation field at p. It never fails
// for valid coordinates.
func (t *Terrain) ElevationAt(p geo.LatLng) (float64, error) {
	if !p.Valid() {
		return 0, errors.New("terrain: invalid coordinate")
	}
	return t.elevationXY(t.toLocalKm(p)), nil
}

// toLocalKm projects p into km east/north of the origin.
func (t *Terrain) toLocalKm(p geo.LatLng) (x, y float64) {
	x = (p.Lng - t.origin.Lng) * t.kmPerDegLng
	y = (p.Lat - t.origin.Lat) * kmPerDegLat
	return x, y
}

// elevationXY evaluates the field in local km coordinates.
func (t *Terrain) elevationXY(x, y float64) float64 {
	pr := t.params
	nx := x / pr.FeatureKm
	ny := y / pr.FeatureKm

	rolling := fbm(t.noise, nx, ny, pr.Octaves, pr.Persistence) // [-1, 1]
	elev := pr.BaseMeters + pr.ReliefMeters*rolling

	// Neighborhood-scale relief: the slow component that gives different
	// parts of the city systematically different elevations.
	if pr.MacroWeight > 0 {
		macro := fbm(noise2{seed: t.noise.seed ^ 0x5A5A5A}, x/pr.MacroKm, y/pr.MacroKm, 3, 0.5)
		elev += pr.MacroWeight * pr.ReliefMeters * macro
	}

	if pr.RidgeWeight > 0 {
		ridge := ridged(noise2{seed: t.noise.seed ^ 0xABCDEF}, nx, ny, pr.Octaves, pr.Persistence)
		elev += pr.RidgeWeight * pr.ReliefMeters * (ridge*2 - 1)
	}

	if pr.SlopePerKm != 0 {
		// Distance along the slope bearing (compass: 0=N, 90=E).
		brg := pr.SlopeBearing * math.Pi / 180
		along := x*math.Sin(brg) + y*math.Cos(brg)
		elev += pr.SlopePerKm * along
	}

	if pr.CoastKm > 0 {
		// Signed distance toward the coast along the coast bearing; at and
		// beyond the coastline, elevation decays to sea level.
		brg := pr.CoastBearing * math.Pi / 180
		toward := x*math.Sin(brg) + y*math.Cos(brg)
		remaining := pr.CoastKm - toward // >0 inland, <=0 at sea
		const shore = 3.0                // km over which land falls to the sea
		switch {
		case remaining <= 0:
			elev = 0
		case remaining < shore:
			elev *= smooth(remaining / shore)
		}
	}

	if elev < 0 {
		elev = 0
	}
	return elev
}

// Rasterize samples the terrain into a raster covering bounds.
func (t *Terrain) Rasterize(bounds geo.BBox, rows, cols int) (*dem.Raster, error) {
	r, err := dem.NewRaster(bounds, rows, cols)
	if err != nil {
		return nil, err
	}
	r.Fill(func(lat, lng float64) float64 {
		return t.elevationXY(t.toLocalKm(geo.LatLng{Lat: lat, Lng: lng}))
	})
	return r, nil
}

// RasterizeTile samples the terrain into the SRTM tile whose south-west
// corner is (swLat, swLng), at the given grid size per side.
func (t *Terrain) RasterizeTile(swLat, swLng, size int) (*dem.Tile, error) {
	tile, err := dem.NewTile(swLat, swLng, size)
	if err != nil {
		return nil, err
	}
	tile.Fill(func(lat, lng float64) float64 {
		return t.elevationXY(t.toLocalKm(geo.LatLng{Lat: lat, Lng: lng}))
	})
	return tile, nil
}
