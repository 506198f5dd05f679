package dem

import (
	"bytes"
	"math"
	"testing"

	"elevprivacy/internal/geo"
)

func benchRaster(b *testing.B) *Raster {
	b.Helper()
	bounds := geo.BBox{SW: geo.LatLng{Lat: 38, Lng: -78}, NE: geo.LatLng{Lat: 39, Lng: -77}}
	r, err := NewRaster(bounds, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	r.Fill(func(lat, lng float64) float64 { return 100 + 40*math.Sin(lat*9)*math.Cos(lng*7) })
	return r
}

func BenchmarkElevationAt(b *testing.B) {
	r := benchRaster(b)
	p := geo.LatLng{Lat: 38.5, Lng: -77.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ElevationAt(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHGTWrite(b *testing.B) {
	tile, err := NewTile(38, -78, srtm3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(2 * srtm3 * srtm3)
		if err := tile.WriteHGT(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHGTRead(b *testing.B) {
	tile, err := NewTile(38, -78, srtm3)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tile.WriteHGT(&buf); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadHGT(bytes.NewReader(payload), 38, -78); err != nil {
			b.Fatal(err)
		}
	}
}
