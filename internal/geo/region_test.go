package geo

import (
	"testing"
)

// rectAround builds a small activity rectangle centered at the given point.
func rectAround(center LatLng, halfDeg float64) BBox {
	return BBox{
		SW: LatLng{Lat: center.Lat - halfDeg, Lng: center.Lng - halfDeg},
		NE: LatLng{Lat: center.Lat + halfDeg, Lng: center.Lng + halfDeg},
	}
}

func TestRegionClustererCreatesAndJoins(t *testing.T) {
	c := NewRegionClusterer(5000) // 5 km threshold

	home := LatLng{Lat: 38.9, Lng: -77.03}
	r1 := c.Assign(rectAround(home, 0.005))
	if r1.ID != "R0" {
		t.Fatalf("first region ID = %q, want R0", r1.ID)
	}

	// An activity 1 km away joins the same region.
	near := home.Destination(90, 1000)
	r2 := c.Assign(rectAround(near, 0.005))
	if r2 != r1 {
		t.Error("nearby rectangle should join existing region")
	}
	if r1.Members != 2 {
		t.Errorf("members = %d, want 2", r1.Members)
	}

	// An activity 300 km away (another city) founds a new region.
	far := LatLng{Lat: 40.71, Lng: -74.0}
	r3 := c.Assign(rectAround(far, 0.005))
	if r3 == r1 {
		t.Error("distant rectangle must found a new region")
	}
	if r3.ID != "R1" {
		t.Errorf("second region ID = %q, want R1", r3.ID)
	}
	if len(c.regions) != 2 {
		t.Errorf("region count = %d, want 2", len(c.regions))
	}
}

func TestRegionClustererBoundsGrow(t *testing.T) {
	c := NewRegionClusterer(10000)
	base := LatLng{Lat: 28.5, Lng: -81.4}
	r := c.Assign(rectAround(base, 0.01))
	first := r.Bounds

	shifted := base.Destination(45, 2000)
	c.Assign(rectAround(shifted, 0.01))
	if !containsBox(r.Bounds, first) {
		t.Error("region bounds must grow monotonically")
	}
	if r.Bounds == first {
		t.Error("region bounds should have grown after a shifted member")
	}
}

func TestRegionClustererPicksNearest(t *testing.T) {
	c := NewRegionClusterer(100000) // generous threshold: everything within 100 km joins
	a := LatLng{Lat: 40.0, Lng: -74.0}
	b := LatLng{Lat: 40.5, Lng: -74.0} // ~55 km north

	ra := c.Assign(rectAround(a, 0.001))
	rb := c.Assign(rectAround(b.Destination(0, 60000), 0.001)) // far enough from a to found new
	if ra == rb {
		t.Fatal("expected two distinct regions")
	}

	// A rectangle slightly north of a must join ra, not rb.
	probe := a.Destination(0, 5000)
	if got := c.Assign(rectAround(probe, 0.001)); got != ra {
		t.Errorf("probe joined %q, want %q", got.ID, ra.ID)
	}
}

func TestRegionCenterIsRunningMean(t *testing.T) {
	c := NewRegionClusterer(50000)
	r := c.Assign(rectAround(LatLng{Lat: 10, Lng: 10}, 0.001))
	c.Assign(rectAround(LatLng{Lat: 10.1, Lng: 10.1}, 0.001))
	got := r.Center()
	if !almostEqual(got.Lat, 10.05, 1e-9) || !almostEqual(got.Lng, 10.05, 1e-9) {
		t.Errorf("Center = %v, want (10.05, 10.05)", got)
	}
}

func TestEmptyRegionCenterFallsBack(t *testing.T) {
	r := &Region{Bounds: rectAround(LatLng{Lat: 2, Lng: 4}, 0.5)}
	got := r.Center()
	if !almostEqual(got.Lat, 2, 1e-12) || !almostEqual(got.Lng, 4, 1e-12) {
		t.Errorf("empty-region Center = %v, want bounds center (2,4)", got)
	}
}
