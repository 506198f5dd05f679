package dem

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"elevprivacy/internal/geo"
)

func testBounds() geo.BBox {
	return geo.BBox{SW: geo.LatLng{Lat: 38, Lng: -78}, NE: geo.LatLng{Lat: 39, Lng: -77}}
}

func TestNewRasterValidation(t *testing.T) {
	tests := []struct {
		name       string
		bounds     geo.BBox
		rows, cols int
		wantErr    bool
	}{
		{"ok", testBounds(), 10, 10, false},
		{"too few rows", testBounds(), 1, 10, true},
		{"too few cols", testBounds(), 10, 0, true},
		{"zero-area bounds", geo.BBox{SW: geo.LatLng{Lat: 1, Lng: 1}, NE: geo.LatLng{Lat: 1, Lng: 1}}, 10, 10, true},
		{"inverted bounds", geo.BBox{SW: geo.LatLng{Lat: 5, Lng: 5}, NE: geo.LatLng{Lat: 1, Lng: 1}}, 10, 10, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRaster(tc.bounds, tc.rows, tc.cols)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewRaster err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestRasterFillAndAt(t *testing.T) {
	r, err := NewRaster(testBounds(), 11, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Elevation = latitude * 10 so rows differ predictably.
	r.Fill(func(lat, lng float64) float64 { return lat * 10 })

	// Row 0 is the north edge (lat 39 -> 390).
	if got := r.At(0, 0); got != 390 {
		t.Errorf("north edge sample = %d, want 390", got)
	}
	if got := r.At(10, 0); got != 380 {
		t.Errorf("south edge sample = %d, want 380", got)
	}
}

func TestElevationAtExactGridPoints(t *testing.T) {
	r, _ := NewRaster(testBounds(), 5, 5)
	r.Fill(func(lat, lng float64) float64 { return 100*lat + lng })

	got, err := r.ElevationAt(geo.LatLng{Lat: 38.5, Lng: -77.5})
	if err != nil {
		t.Fatal(err)
	}
	want := 100*38.5 - 77.5
	if math.Abs(got-want) > 0.5 { // int16 quantization tolerance
		t.Errorf("center elevation = %f, want %f", got, want)
	}
}

func TestElevationAtBilinearInterpolation(t *testing.T) {
	bounds := geo.BBox{SW: geo.LatLng{Lat: 0, Lng: 0}, NE: geo.LatLng{Lat: 1, Lng: 1}}
	r, _ := NewRaster(bounds, 2, 2)
	// Corners: NW=0 NE=100 / SW=200 SE=300 (row 0 = north).
	r.Set(0, 0, 0)
	r.Set(0, 1, 100)
	r.Set(1, 0, 200)
	r.Set(1, 1, 300)

	tests := []struct {
		p    geo.LatLng
		want float64
	}{
		{geo.LatLng{Lat: 1, Lng: 0}, 0},       // NW corner
		{geo.LatLng{Lat: 1, Lng: 1}, 100},     // NE corner
		{geo.LatLng{Lat: 0, Lng: 0}, 200},     // SW corner
		{geo.LatLng{Lat: 0, Lng: 1}, 300},     // SE corner
		{geo.LatLng{Lat: 0.5, Lng: 0.5}, 150}, // center = mean
		{geo.LatLng{Lat: 1, Lng: 0.5}, 50},    // north edge midpoint
	}
	for _, tc := range tests {
		got, err := r.ElevationAt(tc.p)
		if err != nil {
			t.Fatalf("ElevationAt(%v): %v", tc.p, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("ElevationAt(%v) = %f, want %f", tc.p, got, tc.want)
		}
	}
}

func TestElevationAtOutOfBounds(t *testing.T) {
	r, _ := NewRaster(testBounds(), 4, 4)
	_, err := r.ElevationAt(geo.LatLng{Lat: 40, Lng: -77.5})
	if !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestElevationAtVoidHandling(t *testing.T) {
	bounds := geo.BBox{SW: geo.LatLng{Lat: 0, Lng: 0}, NE: geo.LatLng{Lat: 1, Lng: 1}}

	t.Run("partial void uses neighbor mean", func(t *testing.T) {
		r, _ := NewRaster(bounds, 2, 2)
		r.Set(0, 0, Void)
		r.Set(0, 1, 90)
		r.Set(1, 0, 90)
		r.Set(1, 1, 90)
		got, err := r.ElevationAt(geo.LatLng{Lat: 0.5, Lng: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-90) > 1e-9 {
			t.Errorf("void-filled elevation = %f, want 90", got)
		}
	})

	t.Run("all void errors", func(t *testing.T) {
		r, _ := NewRaster(bounds, 2, 2)
		for row := 0; row < 2; row++ {
			for col := 0; col < 2; col++ {
				r.Set(row, col, Void)
			}
		}
		if _, err := r.ElevationAt(geo.LatLng{Lat: 0.5, Lng: 0.5}); err == nil {
			t.Error("all-void cell should error")
		}
	})
}

func TestElevationContinuityProperty(t *testing.T) {
	// Bilinear interpolation over a smooth fill must be bounded by the
	// raster's min/max.
	r, _ := NewRaster(testBounds(), 20, 20)
	r.Fill(func(lat, lng float64) float64 {
		return 50 + 40*math.Sin(lat*7)*math.Cos(lng*5)
	})
	minV, maxV := r.data[0], r.data[0]
	for _, v := range r.data {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	f := func(a, b float64) bool {
		p := geo.LatLng{
			Lat: 38 + math.Mod(math.Abs(a), 1),
			Lng: -78 + math.Mod(math.Abs(b), 1),
		}
		e, err := r.ElevationAt(p)
		if err != nil {
			return false
		}
		return e >= float64(minV)-1e-9 && e <= float64(maxV)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampInt16(t *testing.T) {
	tests := []struct {
		in   float64
		want int16
	}{
		{0, 0},
		{1.4, 1},
		{1.5, 2},
		{-1.5, -2},
		{40000, math.MaxInt16},
		{-40000, math.MinInt16 + 1},
		{math.NaN(), Void},
	}
	for _, tc := range tests {
		if got := clampInt16(tc.in); got != tc.want {
			t.Errorf("clampInt16(%f) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
