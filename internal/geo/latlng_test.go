package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDistanceMetersKnownPairs(t *testing.T) {
	tests := []struct {
		name string
		p, q LatLng
		want float64 // meters
		tol  float64
	}{
		{
			name: "same point",
			p:    LatLng{Lat: 40.0, Lng: -74.0},
			q:    LatLng{Lat: 40.0, Lng: -74.0},
			want: 0, tol: 1e-9,
		},
		{
			name: "one degree latitude",
			p:    LatLng{Lat: 0, Lng: 0},
			q:    LatLng{Lat: 1, Lng: 0},
			want: 111195, tol: 100,
		},
		{
			name: "nyc to dc",
			p:    LatLng{Lat: 40.7128, Lng: -74.0060},
			q:    LatLng{Lat: 38.9072, Lng: -77.0369},
			want: 328000, tol: 2000,
		},
		{
			name: "antipodal-ish",
			p:    LatLng{Lat: 0, Lng: 0},
			q:    LatLng{Lat: 0, Lng: 180},
			want: math.Pi * EarthRadiusMeters, tol: 10,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.p.DistanceMeters(tc.q)
			if !almostEqual(got, tc.want, tc.tol) {
				t.Errorf("DistanceMeters() = %f, want %f ± %f", got, tc.want, tc.tol)
			}
		})
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(aLat, aLng, bLat, bLng float64) bool {
		p := LatLng{Lat: clampLat(aLat), Lng: clampLng(aLng)}
		q := LatLng{Lat: clampLat(bLat), Lng: clampLng(bLng)}
		d1 := p.DistanceMeters(q)
		d2 := q.DistanceMeters(p)
		return almostEqual(d1, d2, 1e-6) && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTripProperty(t *testing.T) {
	// Travelling d meters should land d meters away (for moderate d, away
	// from the poles where bearings degenerate).
	f := func(latSeed, lngSeed, bearingSeed, distSeed float64) bool {
		p := LatLng{Lat: math.Mod(math.Abs(latSeed), 60), Lng: clampLng(lngSeed)}
		bearing := math.Mod(math.Abs(bearingSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 50000) // up to 50 km
		q := p.Destination(bearing, dist)
		return almostEqual(p.DistanceMeters(q), dist, 1+dist*1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationCardinal(t *testing.T) {
	p := LatLng{Lat: 40, Lng: -74}
	north := p.Destination(0, 10000)
	if north.Lat <= p.Lat || !almostEqual(north.Lng, p.Lng, 1e-9) {
		t.Errorf("north destination %v should be due north of %v", north, p)
	}
	east := p.Destination(90, 10000)
	if east.Lng <= p.Lng || !almostEqual(east.Lat, p.Lat, 1e-3) {
		t.Errorf("east destination %v should be due east of %v", east, p)
	}
}

func TestBearingDegrees(t *testing.T) {
	p := LatLng{Lat: 40, Lng: -74}
	if b := p.BearingDegrees(LatLng{Lat: 41, Lng: -74}); !almostEqual(b, 0, 1e-9) {
		t.Errorf("northward bearing = %f, want 0", b)
	}
	if b := p.BearingDegrees(LatLng{Lat: 40, Lng: -73}); !almostEqual(b, 90, 0.5) {
		t.Errorf("eastward bearing = %f, want ~90", b)
	}
	if b := p.BearingDegrees(LatLng{Lat: 39, Lng: -74}); !almostEqual(b, 180, 1e-9) {
		t.Errorf("southward bearing = %f, want 180", b)
	}
}

func TestValid(t *testing.T) {
	valid := []LatLng{{0, 0}, {90, 180}, {-90, -180}, {40.7, -74.0}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []LatLng{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestPathResample(t *testing.T) {
	p := Path{{Lat: 0, Lng: 0}, {Lat: 1, Lng: 0}}

	t.Run("endpoints preserved", func(t *testing.T) {
		r := p.Resample(5)
		if len(r) != 5 {
			t.Fatalf("len = %d, want 5", len(r))
		}
		if r[0] != p[0] {
			t.Errorf("first point = %v, want %v", r[0], p[0])
		}
		if !almostEqual(r[4].Lat, 1, 1e-9) {
			t.Errorf("last point = %v, want lat 1", r[4])
		}
	})

	t.Run("even spacing", func(t *testing.T) {
		r := p.Resample(11)
		for i := 1; i < len(r); i++ {
			gap := r[i-1].DistanceMeters(r[i])
			want := p[0].DistanceMeters(p[1]) / 10
			if !almostEqual(gap, want, want*0.01) {
				t.Errorf("gap %d = %f, want %f", i, gap, want)
			}
		}
	})

	t.Run("degenerate inputs", func(t *testing.T) {
		if r := (Path{}).Resample(5); r != nil {
			t.Errorf("empty path resample = %v, want nil", r)
		}
		if r := p.Resample(0); r != nil {
			t.Errorf("n=0 resample = %v, want nil", r)
		}
		single := Path{{Lat: 3, Lng: 4}}
		r := single.Resample(3)
		if len(r) != 3 || r[0] != single[0] || r[2] != single[0] {
			t.Errorf("single-point resample = %v", r)
		}
		// All-identical points (zero total length).
		dup := Path{{Lat: 1, Lng: 1}, {Lat: 1, Lng: 1}}
		r = dup.Resample(4)
		if len(r) != 4 || r[3] != dup[0] {
			t.Errorf("zero-length resample = %v", r)
		}
	})
}

func TestPathResampleCountProperty(t *testing.T) {
	f := func(nSeed uint8, lats []float64) bool {
		n := int(nSeed%50) + 1
		path := make(Path, 0, len(lats))
		for i, lat := range lats {
			path = append(path, LatLng{
				Lat: math.Mod(math.Abs(lat), 80),
				Lng: float64(i) * 0.001,
			})
		}
		r := path.Resample(n)
		if len(path) == 0 {
			return r == nil
		}
		return len(r) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathBounds(t *testing.T) {
	if _, ok := (Path{}).Bounds(); ok {
		t.Error("empty path should have no bounds")
	}
	p := Path{{Lat: 2, Lng: -3}, {Lat: -1, Lng: 5}, {Lat: 0, Lng: 0}}
	b, ok := p.Bounds()
	if !ok {
		t.Fatal("Bounds() not ok")
	}
	want := BBox{SW: LatLng{Lat: -1, Lng: -3}, NE: LatLng{Lat: 2, Lng: 5}}
	if b != want {
		t.Errorf("Bounds() = %v, want %v", b, want)
	}
}

func TestPathClone(t *testing.T) {
	if c := (Path)(nil).Clone(); c != nil {
		t.Error("nil clone should be nil")
	}
	p := Path{{Lat: 1, Lng: 2}}
	c := p.Clone()
	c[0].Lat = 9
	if p[0].Lat != 1 {
		t.Error("Clone must not share backing array")
	}
}

func TestInterpolate(t *testing.T) {
	p := LatLng{Lat: 0, Lng: 0}
	q := LatLng{Lat: 10, Lng: 20}
	mid := p.Interpolate(q, 0.5)
	if !almostEqual(mid.Lat, 5, 1e-12) || !almostEqual(mid.Lng, 10, 1e-12) {
		t.Errorf("Interpolate(0.5) = %v", mid)
	}
	if got := p.Interpolate(q, 0); got != p {
		t.Errorf("Interpolate(0) = %v, want %v", got, p)
	}
	if got := p.Interpolate(q, 1); got != q {
		t.Errorf("Interpolate(1) = %v, want %v", got, q)
	}
}

func clampLat(v float64) float64 { return math.Mod(v, 90) }
func clampLng(v float64) float64 { return math.Mod(v, 180) }
