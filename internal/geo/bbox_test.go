package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func box(swLat, swLng, neLat, neLng float64) BBox {
	return BBox{SW: LatLng{Lat: swLat, Lng: swLng}, NE: LatLng{Lat: neLat, Lng: neLng}}
}

func TestNewBBoxNormalizes(t *testing.T) {
	b := NewBBox(LatLng{Lat: 5, Lng: -2}, LatLng{Lat: -1, Lng: 7})
	want := box(-1, -2, 5, 7)
	if b != want {
		t.Errorf("NewBBox = %v, want %v", b, want)
	}
	if !b.Valid() {
		t.Error("normalized box should be valid")
	}
}

func TestBBoxContains(t *testing.T) {
	b := box(0, 0, 10, 10)
	inside := []LatLng{{5, 5}, {0, 0}, {10, 10}, {0, 10}}
	for _, p := range inside {
		if !b.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	outside := []LatLng{{-0.001, 5}, {5, 10.001}, {11, 11}}
	for _, p := range outside {
		if b.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestBBoxContainsPath(t *testing.T) {
	b := box(0, 0, 10, 10)
	if b.ContainsPath(Path{}) {
		t.Error("empty path should not be contained")
	}
	if !b.ContainsPath(Path{{1, 1}, {9, 9}}) {
		t.Error("inner path should be contained")
	}
	if b.ContainsPath(Path{{1, 1}, {11, 9}}) {
		t.Error("straddling path should not be contained")
	}
}

func TestBBoxIntersect(t *testing.T) {
	a := box(0, 0, 10, 10)

	t.Run("overlap", func(t *testing.T) {
		got, ok := a.Intersect(box(5, 5, 15, 15))
		if !ok || got != box(5, 5, 10, 10) {
			t.Errorf("Intersect = %v ok=%v", got, ok)
		}
	})
	t.Run("disjoint", func(t *testing.T) {
		if _, ok := a.Intersect(box(20, 20, 30, 30)); ok {
			t.Error("disjoint boxes should not intersect")
		}
	})
	t.Run("edge touch", func(t *testing.T) {
		got, ok := a.Intersect(box(10, 0, 20, 10))
		if !ok || got.AreaDeg2() != 0 {
			t.Errorf("edge touch: got %v ok=%v, want zero-area box", got, ok)
		}
	})
}

func TestBBoxUnionContainsBothProperty(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		a := NewBBox(
			LatLng{Lat: math.Mod(a1, 80), Lng: math.Mod(a2, 170)},
			LatLng{Lat: math.Mod(a3, 80), Lng: math.Mod(a4, 170)})
		b := NewBBox(
			LatLng{Lat: math.Mod(b1, 80), Lng: math.Mod(b2, 170)},
			LatLng{Lat: math.Mod(b3, 80), Lng: math.Mod(b4, 170)})
		u := a.Union(b)
		return containsBox(u, a) && containsBox(u, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxIoU(t *testing.T) {
	a := box(0, 0, 10, 10)
	if got := a.IoU(a); !almostEqual(got, 1, 1e-12) {
		t.Errorf("self IoU = %f, want 1", got)
	}
	if got := a.IoU(box(20, 20, 30, 30)); got != 0 {
		t.Errorf("disjoint IoU = %f, want 0", got)
	}
	// Half overlap: inter=50, union=150 -> 1/3.
	if got := a.IoU(box(0, 5, 10, 15)); !almostEqual(got, 1.0/3, 1e-12) {
		t.Errorf("half-overlap IoU = %f, want 1/3", got)
	}
	// Zero-area boxes.
	pt := box(1, 1, 1, 1)
	if got := pt.IoU(pt); got != 0 {
		t.Errorf("point IoU = %f, want 0", got)
	}
}

func TestBBoxIoUBoundsProperty(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		a := NewBBox(
			LatLng{Lat: math.Mod(a1, 80), Lng: math.Mod(a2, 170)},
			LatLng{Lat: math.Mod(a3, 80), Lng: math.Mod(a4, 170)})
		b := NewBBox(
			LatLng{Lat: math.Mod(b1, 80), Lng: math.Mod(b2, 170)},
			LatLng{Lat: math.Mod(b3, 80), Lng: math.Mod(b4, 170)})
		iou := a.IoU(b)
		// Bounded, symmetric.
		return iou >= 0 && iou <= 1+1e-12 && almostEqual(iou, b.IoU(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxCenterAndExpand(t *testing.T) {
	b := box(0, 0, 10, 20)
	if c := b.Center(); c != (LatLng{Lat: 5, Lng: 10}) {
		t.Errorf("Center = %v", c)
	}
	e := b.Expand(1, 2)
	if e != box(-1, -2, 11, 22) {
		t.Errorf("Expand = %v", e)
	}
	if !containsBox(e, b) {
		t.Error("expanded box must contain original")
	}
}

func TestBBoxGrid(t *testing.T) {
	b := box(0, 0, 10, 20)

	t.Run("cell count and tiling", func(t *testing.T) {
		cells := b.Grid(2, 4)
		if len(cells) != 8 {
			t.Fatalf("len = %d, want 8", len(cells))
		}
		var area float64
		for _, c := range cells {
			if !containsBox(b, c) {
				t.Errorf("cell %v outside parent", c)
			}
			area += c.AreaDeg2()
		}
		if !almostEqual(area, b.AreaDeg2(), 1e-9) {
			t.Errorf("cells cover area %f, want %f", area, b.AreaDeg2())
		}
	})

	t.Run("interiors disjoint", func(t *testing.T) {
		cells := b.Grid(3, 3)
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				if inter, ok := cells[i].Intersect(cells[j]); ok && inter.AreaDeg2() > 1e-12 {
					t.Errorf("cells %d and %d overlap with area %g", i, j, inter.AreaDeg2())
				}
			}
		}
	})

	t.Run("invalid dims", func(t *testing.T) {
		if cells := b.Grid(0, 5); cells != nil {
			t.Error("rows=0 should return nil")
		}
		if cells := b.Grid(5, -1); cells != nil {
			t.Error("cols<0 should return nil")
		}
	})
}

// containsBox reports whether o lies entirely inside b.
func containsBox(b, o BBox) bool { return b.Contains(o.SW) && b.Contains(o.NE) }
