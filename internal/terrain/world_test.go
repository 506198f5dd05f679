package terrain

import (
	"math"
	"testing"
)

func TestWorldMatchesPaperTables(t *testing.T) {
	world := World()
	if len(world) != 10 {
		t.Fatalf("world has %d cities, want 10 (Table II)", len(world))
	}

	// Table II order and sample sizes.
	wantCity := []struct {
		name string
		size int
	}{
		{"New York City", 2437},
		{"Washington DC", 2129},
		{"San Francisco", 743},
		{"Colorado Springs", 369},
		{"Minneapolis", 363},
		{"Los Angeles", 280},
		{"New Jersey", 266},
		{"Duluth", 156},
		{"Miami", 94},
		{"Tampa", 83},
	}
	for i, want := range wantCity {
		if world[i].Name != want.name {
			t.Errorf("city %d = %q, want %q", i, world[i].Name, want.name)
		}
		if world[i].TargetSegments != want.size {
			t.Errorf("%s target = %d, want %d", want.name, world[i].TargetSegments, want.size)
		}
	}

	// Table III borough counts.
	wantBoroughs := map[string]int{
		"LA": 4, "MIA": 3, "NJ": 3, "NYC": 6, "SF": 4, "WDC": 2,
	}
	var total int
	for ab, n := range wantBoroughs {
		c, err := CityByName(world, ab)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Boroughs) != n {
			t.Errorf("%s has %d boroughs, want %d", ab, len(c.Boroughs), n)
		}
		total += len(c.Boroughs)
	}
	if total != 22 {
		t.Errorf("total boroughs = %d, want 22 (Table III)", total)
	}
}

func TestWorldCityGeometry(t *testing.T) {
	for _, c := range World() {
		if !c.Bounds.Valid() || c.Bounds.AreaDeg2() == 0 {
			t.Errorf("%s: invalid bounds %v", c.Name, c.Bounds)
		}
		if !c.Bounds.Contains(c.Center) {
			t.Errorf("%s: center %v outside bounds %v", c.Name, c.Center, c.Bounds)
		}
		for _, b := range c.Boroughs {
			if !b.Bounds.Valid() || b.Bounds.AreaDeg2() == 0 {
				t.Errorf("%s/%s: invalid bounds", c.Name, b.Name)
			}
			if b.TargetSegments <= 0 {
				t.Errorf("%s/%s: non-positive target", c.Name, b.Name)
			}
		}
	}
}

func TestWorldTerrainsInstantiable(t *testing.T) {
	for _, c := range World() {
		tr, err := c.Terrain()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		e, err := tr.ElevationAt(c.Center)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if e < 0 || e > 2300 {
			t.Errorf("%s center elevation = %f, implausible", c.Name, e)
		}
	}
}

// TestWorldCitySignaturesSeparable checks the property the whole attack
// depends on: mean elevations across cities must span a wide range, with
// flat coastal cities near sea level and Colorado Springs above 1500 m.
func TestWorldCitySignaturesSeparable(t *testing.T) {
	world := World()
	means := map[string]float64{}
	for _, c := range world {
		tr, err := c.Terrain()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		cells := c.Bounds.Grid(8, 8)
		for _, cell := range cells {
			e, err := tr.ElevationAt(cell.Center())
			if err != nil {
				continue
			}
			sum += e
			n++
		}
		means[c.Abbrev] = sum / float64(n)
	}

	if means["MIA"] > 15 {
		t.Errorf("Miami mean %f too high for a coastal plain", means["MIA"])
	}
	if means["CS"] < 1500 {
		t.Errorf("Colorado Springs mean %f too low for a piedmont city", means["CS"])
	}
	if means["CS"] <= means["DUL"] || means["DUL"] <= means["NYC"] {
		t.Errorf("expected CS > DUL > NYC ordering, got %v", means)
	}
}

func TestCityByName(t *testing.T) {
	world := World()
	for _, key := range []string{"New York City", "NYC"} {
		c, err := CityByName(world, key)
		if err != nil {
			t.Fatal(err)
		}
		if c.Abbrev != "NYC" {
			t.Errorf("CityByName(%q) = %s", key, c.Name)
		}
	}
	if _, err := CityByName(world, "Atlantis"); err == nil {
		t.Error("unknown city accepted")
	}
}

func TestBoroughCitiesOrder(t *testing.T) {
	cities := BoroughCities(World())
	want := []string{"LA", "MIA", "NJ", "NYC", "SF", "WDC"}
	if len(cities) != len(want) {
		t.Fatalf("got %d borough cities, want %d", len(cities), len(want))
	}
	for i, c := range cities {
		if c.Abbrev != want[i] {
			t.Errorf("borough city %d = %s, want %s", i, c.Abbrev, want[i])
		}
	}
}

func TestWorldSeedsDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, c := range World() {
		if prev, dup := seen[c.Params.Seed]; dup {
			t.Errorf("cities %s and %s share seed %d", prev, c.Name, c.Params.Seed)
		}
		seen[c.Params.Seed] = c.Name
	}
}

// TestBoroughsMostlyInsideCityTerrain sanity-checks that borough centers
// produce finite elevations on their city's terrain.
func TestBoroughsQueryable(t *testing.T) {
	for _, c := range BoroughCities(World()) {
		tr, err := c.Terrain()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range c.Boroughs {
			e, err := tr.ElevationAt(b.Bounds.Center())
			if err != nil {
				t.Errorf("%s/%s: %v", c.Abbrev, b.Name, err)
			}
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Errorf("%s/%s: elevation %f", c.Abbrev, b.Name, e)
			}
		}
	}
}
