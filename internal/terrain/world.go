package terrain

import (
	"fmt"

	"elevprivacy/internal/geo"
)

// Borough is a named sub-region of a city, mirroring Table III of the paper.
type Borough struct {
	// Name is the borough label, e.g. "Manhattan".
	Name string
	// Bounds is the mining boundary for the borough.
	Bounds geo.BBox
	// TargetSegments is the sample size the paper reports for the borough
	// (Table III); the segment synthesizer populates this many segments.
	TargetSegments int
}

// City is one class of the city-level dataset: a terrain signature, a mining
// boundary, and the borough decomposition when the paper defines one.
type City struct {
	// Name is the full city label, e.g. "New York City".
	Name string
	// Abbrev is the short label used in the paper's tables (NYC, LA, ...).
	Abbrev string
	// Center anchors the city's terrain.
	Center geo.LatLng
	// Bounds is the city-level mining boundary.
	Bounds geo.BBox
	// Params is the city's terrain signature.
	Params Params
	// TargetSegments is the city-level sample size from Table II.
	TargetSegments int
	// Boroughs lists the borough decomposition from Table III; empty for
	// cities the paper only uses at city level.
	Boroughs []Borough
}

// Terrain instantiates the city's terrain field.
func (c *City) Terrain() (*Terrain, error) {
	t, err := New(c.Center, c.Params)
	if err != nil {
		return nil, fmt.Errorf("terrain: city %s: %w", c.Name, err)
	}
	return t, nil
}

// World returns the paper's ten-city world in Table II order. Each city's
// terrain parameters are tuned to caricature the real city's elevation
// signature: Miami and Tampa are flat coastal plains, Colorado Springs is a
// high piedmont climbing toward the Front Range, San Francisco is rugged
// coastal hills, Duluth slopes down to Lake Superior, and so on.
func World() []*City {
	return []*City{
		{
			Name:   "New York City",
			Abbrev: "NYC",
			Center: geo.LatLng{Lat: 40.75, Lng: -73.97},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 40.55, Lng: -74.20}, geo.LatLng{Lat: 40.90, Lng: -73.70}),
			Params: Params{
				Seed: 101, BaseMeters: 22, ReliefMeters: 24, FeatureKm: 2.6,
				Octaves: 5, Persistence: 0.55,
				CoastBearing: 155, CoastKm: 14,
			},
			TargetSegments: 2437,
			Boroughs: []Borough{
				{Name: "Manhattan", TargetSegments: 2437,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.70, Lng: -74.02}, geo.LatLng{Lat: 40.88, Lng: -73.91})},
				{Name: "Queens", TargetSegments: 353,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.67, Lng: -73.90}, geo.LatLng{Lat: 40.78, Lng: -73.73})},
				{Name: "Brooklyn(South)", TargetSegments: 239,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.57, Lng: -74.03}, geo.LatLng{Lat: 40.645, Lng: -73.90})},
				{Name: "Brooklyn(North)", TargetSegments: 205,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.65, Lng: -74.00}, geo.LatLng{Lat: 40.73, Lng: -73.93})},
				{Name: "Bronx", TargetSegments: 142,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.80, Lng: -73.93}, geo.LatLng{Lat: 40.90, Lng: -73.82})},
				{Name: "Staten Island", TargetSegments: 119,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.50, Lng: -74.25}, geo.LatLng{Lat: 40.62, Lng: -74.05})},
			},
		},
		{
			Name:   "Washington DC",
			Abbrev: "WDC",
			Center: geo.LatLng{Lat: 38.90, Lng: -77.03},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 38.80, Lng: -77.15}, geo.LatLng{Lat: 39.00, Lng: -76.90}),
			Params: Params{
				Seed: 202, BaseMeters: 55, ReliefMeters: 38, FeatureKm: 3.2,
				Octaves: 5, Persistence: 0.5,
			},
			TargetSegments: 2129,
			Boroughs: []Borough{
				{Name: "District of Columbia", TargetSegments: 2129,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 38.85, Lng: -77.09}, geo.LatLng{Lat: 38.95, Lng: -76.95})},
				{Name: "Baltimore", TargetSegments: 218,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 39.25, Lng: -76.68}, geo.LatLng{Lat: 39.35, Lng: -76.55})},
			},
		},
		{
			Name:   "San Francisco",
			Abbrev: "SF",
			Center: geo.LatLng{Lat: 37.76, Lng: -122.44},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 37.70, Lng: -122.52}, geo.LatLng{Lat: 37.82, Lng: -122.36}),
			Params: Params{
				Seed: 303, BaseMeters: 70, ReliefMeters: 85, FeatureKm: 1.7,
				Octaves: 6, Persistence: 0.55, RidgeWeight: 0.35,
				CoastBearing: 270, CoastKm: 8,
			},
			TargetSegments: 743,
			Boroughs: []Borough{
				{Name: "South West", TargetSegments: 743,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 37.70, Lng: -122.52}, geo.LatLng{Lat: 37.76, Lng: -122.44})},
				{Name: "South East", TargetSegments: 144,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 37.70, Lng: -122.44}, geo.LatLng{Lat: 37.76, Lng: -122.36})},
				{Name: "North West", TargetSegments: 130,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 37.76, Lng: -122.52}, geo.LatLng{Lat: 37.82, Lng: -122.44})},
				{Name: "North East", TargetSegments: 86,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 37.76, Lng: -122.44}, geo.LatLng{Lat: 37.82, Lng: -122.36})},
			},
		},
		{
			Name:   "Colorado Springs",
			Abbrev: "CS",
			Center: geo.LatLng{Lat: 38.85, Lng: -104.80},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 38.75, Lng: -104.90}, geo.LatLng{Lat: 38.95, Lng: -104.70}),
			Params: Params{
				Seed: 404, BaseMeters: 1860, ReliefMeters: 130, FeatureKm: 2.8,
				Octaves: 6, Persistence: 0.55, RidgeWeight: 0.45,
				SlopePerKm: 14, SlopeBearing: 270, // climbs westward into the Front Range
			},
			TargetSegments: 369,
		},
		{
			Name:   "Minneapolis",
			Abbrev: "MIN",
			Center: geo.LatLng{Lat: 44.98, Lng: -93.27},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 44.90, Lng: -93.35}, geo.LatLng{Lat: 45.05, Lng: -93.15}),
			Params: Params{
				Seed: 505, BaseMeters: 255, ReliefMeters: 22, FeatureKm: 3.8,
				Octaves: 4, Persistence: 0.5,
			},
			TargetSegments: 363,
		},
		{
			Name:   "Los Angeles",
			Abbrev: "LA",
			Center: geo.LatLng{Lat: 34.05, Lng: -118.30},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 33.95, Lng: -118.55}, geo.LatLng{Lat: 34.15, Lng: -118.15}),
			Params: Params{
				Seed: 606, BaseMeters: 85, ReliefMeters: 65, FeatureKm: 3.0,
				Octaves: 5, Persistence: 0.55, RidgeWeight: 0.2,
				CoastBearing: 225, CoastKm: 16,
			},
			TargetSegments: 280,
			Boroughs: []Borough{
				{Name: "Downtown", TargetSegments: 280,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 34.03, Lng: -118.27}, geo.LatLng{Lat: 34.07, Lng: -118.22})},
				{Name: "Santa Monica", TargetSegments: 128,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 34.00, Lng: -118.52}, geo.LatLng{Lat: 34.05, Lng: -118.44})},
				{Name: "Chinatown", TargetSegments: 46,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 34.058, Lng: -118.25}, geo.LatLng{Lat: 34.08, Lng: -118.225})},
				{Name: "Beverly Hills", TargetSegments: 38,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 34.06, Lng: -118.42}, geo.LatLng{Lat: 34.10, Lng: -118.36})},
			},
		},
		{
			Name:   "New Jersey",
			Abbrev: "NJ",
			Center: geo.LatLng{Lat: 40.72, Lng: -74.10},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 40.65, Lng: -74.25}, geo.LatLng{Lat: 40.82, Lng: -73.97}),
			Params: Params{
				Seed: 707, BaseMeters: 16, ReliefMeters: 18, FeatureKm: 2.4,
				Octaves: 4, Persistence: 0.5,
				CoastBearing: 90, CoastKm: 7,
			},
			TargetSegments: 266,
			Boroughs: []Borough{
				{Name: "Jersey City", TargetSegments: 266,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.69, Lng: -74.09}, geo.LatLng{Lat: 40.75, Lng: -74.03})},
				{Name: "West New York", TargetSegments: 23,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.77, Lng: -74.02}, geo.LatLng{Lat: 40.80, Lng: -73.99})},
				{Name: "Newark", TargetSegments: 28,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 40.70, Lng: -74.20}, geo.LatLng{Lat: 40.77, Lng: -74.14})},
			},
		},
		{
			Name:   "Duluth",
			Abbrev: "DUL",
			Center: geo.LatLng{Lat: 46.79, Lng: -92.10},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 46.72, Lng: -92.20}, geo.LatLng{Lat: 46.85, Lng: -91.95}),
			Params: Params{
				Seed: 808, BaseMeters: 240, ReliefMeters: 75, FeatureKm: 2.0,
				Octaves: 5, Persistence: 0.55,
				SlopePerKm: 18, SlopeBearing: 315, // climbs away from Lake Superior
			},
			TargetSegments: 156,
		},
		{
			Name:   "Miami",
			Abbrev: "MIA",
			Center: geo.LatLng{Lat: 25.77, Lng: -80.19},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 25.70, Lng: -80.25}, geo.LatLng{Lat: 25.85, Lng: -80.10}),
			Params: Params{
				Seed: 909, BaseMeters: 3, ReliefMeters: 3.5, FeatureKm: 4.5,
				Octaves: 3, Persistence: 0.5,
				CoastBearing: 90, CoastKm: 5,
			},
			TargetSegments: 94,
			Boroughs: []Borough{
				{Name: "Downtown", TargetSegments: 67,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 25.76, Lng: -80.205}, geo.LatLng{Lat: 25.795, Lng: -80.18})},
				{Name: "Miami Beach", TargetSegments: 44,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 25.76, Lng: -80.15}, geo.LatLng{Lat: 25.82, Lng: -80.12})},
				{Name: "Virginia Key", TargetSegments: 18,
					Bounds: geo.NewBBox(geo.LatLng{Lat: 25.73, Lng: -80.175}, geo.LatLng{Lat: 25.755, Lng: -80.14})},
			},
		},
		{
			Name:   "Tampa",
			Abbrev: "TPA",
			Center: geo.LatLng{Lat: 27.95, Lng: -82.46},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 27.88, Lng: -82.55}, geo.LatLng{Lat: 28.05, Lng: -82.38}),
			Params: Params{
				Seed: 1010, BaseMeters: 10, ReliefMeters: 7, FeatureKm: 4.0,
				Octaves: 3, Persistence: 0.5,
				CoastBearing: 225, CoastKm: 7,
			},
			TargetSegments: 83,
		},
	}
}

// CityByName returns the world city with the given full name or abbreviation.
func CityByName(world []*City, name string) (*City, error) {
	for _, c := range world {
		if c.Name == name || c.Abbrev == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("terrain: unknown city %q", name)
}

// BoroughCities returns the Table III cities (those with boroughs) in the
// paper's order: LA, Miami, NJ, NYC, SF, WDC.
func BoroughCities(world []*City) []*City {
	order := []string{"LA", "MIA", "NJ", "NYC", "SF", "WDC"}
	out := make([]*City, 0, len(order))
	for _, ab := range order {
		if c, err := CityByName(world, ab); err == nil && len(c.Boroughs) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// AthleteWorld returns the four regions of the paper's user-specific
// dataset (Table I) with the paper's per-region sample sizes. Washington DC
// and New York City reuse their Table II terrain signatures; Orlando and
// San Diego exist only in this dataset.
func AthleteWorld() []*City {
	world := World()
	wdc, _ := CityByName(world, "WDC")
	nyc, _ := CityByName(world, "NYC")

	return []*City{
		{
			Name: "Washington DC", Abbrev: "WDC",
			Center: wdc.Center, Bounds: wdc.Bounds, Params: wdc.Params,
			TargetSegments: 366,
		},
		{
			Name: "Orlando", Abbrev: "ORL",
			Center: geo.LatLng{Lat: 28.54, Lng: -81.38},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 28.45, Lng: -81.48}, geo.LatLng{Lat: 28.62, Lng: -81.28}),
			Params: Params{
				Seed: 1111, BaseMeters: 28, ReliefMeters: 9, FeatureKm: 4.2,
				Octaves: 3, Persistence: 0.5,
			},
			TargetSegments: 232,
		},
		{
			Name: "New York City", Abbrev: "NYC",
			Center: nyc.Center, Bounds: nyc.Bounds, Params: nyc.Params,
			TargetSegments: 120,
		},
		{
			Name: "San Diego", Abbrev: "SD",
			Center: geo.LatLng{Lat: 32.75, Lng: -117.12},
			Bounds: geo.NewBBox(geo.LatLng{Lat: 32.65, Lng: -117.25}, geo.LatLng{Lat: 32.85, Lng: -117.00}),
			Params: Params{
				Seed: 1212, BaseMeters: 75, ReliefMeters: 55, FeatureKm: 2.2,
				Octaves: 5, Persistence: 0.55, RidgeWeight: 0.15,
				CoastBearing: 270, CoastKm: 10,
			},
			TargetSegments: 18,
		},
	}
}
