package geo

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestPolylineGoogleReferenceVector checks the worked example from Google's
// polyline algorithm documentation.
func TestPolylineGoogleReferenceVector(t *testing.T) {
	path := Path{
		{Lat: 38.5, Lng: -120.2},
		{Lat: 40.7, Lng: -120.95},
		{Lat: 43.252, Lng: -126.453},
	}
	const want = "_p~iF~ps|U_ulLnnqC_mqNvxq`@"
	if got := EncodePolyline(path); got != want {
		t.Errorf("EncodePolyline = %q, want %q", got, want)
	}
	decoded, err := DecodePolyline(want)
	if err != nil {
		t.Fatalf("DecodePolyline: %v", err)
	}
	if len(decoded) != len(path) {
		t.Fatalf("decoded %d points, want %d", len(decoded), len(path))
	}
	for i := range path {
		if !almostEqual(decoded[i].Lat, path[i].Lat, 1e-5) ||
			!almostEqual(decoded[i].Lng, path[i].Lng, 1e-5) {
			t.Errorf("point %d = %v, want %v", i, decoded[i], path[i])
		}
	}
}

func TestPolylineEmpty(t *testing.T) {
	if got := EncodePolyline(nil); got != "" {
		t.Errorf("EncodePolyline(nil) = %q, want empty", got)
	}
	decoded, err := DecodePolyline("")
	if err != nil {
		t.Fatalf("DecodePolyline(empty): %v", err)
	}
	if len(decoded) != 0 {
		t.Errorf("decoded %d points, want 0", len(decoded))
	}
}

func TestPolylineSinglePoint(t *testing.T) {
	path := Path{{Lat: -0.00001, Lng: 0.00001}}
	decoded, err := DecodePolyline(EncodePolyline(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || !almostEqual(decoded[0].Lat, path[0].Lat, 1e-9) {
		t.Errorf("decoded = %v, want %v", decoded, path)
	}
}

func TestPolylineRoundTripProperty(t *testing.T) {
	f := func(raw []int32) bool {
		path := make(Path, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			path = append(path, LatLng{
				Lat: float64(raw[i]%9000000) / 1e5,    // ±90
				Lng: float64(raw[i+1]%18000000) / 1e5, // ±180
			})
		}
		decoded, err := DecodePolyline(EncodePolyline(path))
		if err != nil {
			return false
		}
		if len(decoded) != len(path) {
			return false
		}
		for i := range path {
			if !almostEqual(decoded[i].Lat, path[i].Lat, 1e-5+1e-9) ||
				!almostEqual(decoded[i].Lng, path[i].Lng, 1e-5+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPolylinePrecisionQuantization(t *testing.T) {
	// Values finer than 1e-5 degrees quantize to the nearest step.
	path := Path{{Lat: 1.000004, Lng: 2.000006}}
	decoded, err := DecodePolyline(EncodePolyline(path))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(decoded[0].Lat, 1.0, 1e-9) {
		t.Errorf("lat quantized to %v, want 1.0", decoded[0].Lat)
	}
	if !almostEqual(decoded[0].Lng, 2.00001, 1e-9) {
		t.Errorf("lng quantized to %v, want 2.00001", decoded[0].Lng)
	}
}

func TestDecodePolylineErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"truncated varint", "_p~iF~ps|U_"},
		{"odd coordinate count", "_p~iF"},
		{"invalid byte low", "\x1f\x1f"},
		{"continuation without end", strings.Repeat("\x7f", 20)},
		{"latitude off the globe", "axaaaaaaaaFAAA"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodePolyline(tc.in); err == nil {
				t.Errorf("DecodePolyline(%q) succeeded, want error", tc.in)
			}
		})
	}
}

// TestDecodePolylineNamesOffGlobePoint: the error for a point outside
// the lat/lng domain names the byte where that point starts.
func TestDecodePolylineNamesOffGlobePoint(t *testing.T) {
	first := EncodePolyline(Path{{Lat: 1, Lng: 1}})
	_, err := DecodePolyline(EncodePolyline(Path{{Lat: 1, Lng: 1}, {Lat: 91, Lng: 1}}))
	if err == nil {
		t.Fatal("latitude 91 accepted")
	}
	if want := fmt.Sprintf("byte %d", len(first)); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name %q", err, want)
	}
}

// FuzzDecodePolyline feeds the decoder arbitrary strings: it must not
// panic, takes at least two bytes per point, and whatever it accepts must
// decode the same again after an encode.
func FuzzDecodePolyline(f *testing.F) {
	f.Add("_p~iF~ps|U_ulLnnqC_mqNvxq`@")
	f.Add("")
	f.Add("??")
	f.Add("_p~iF~ps|U_")
	f.Fuzz(func(t *testing.T, s string) {
		path, err := DecodePolyline(s)
		if err != nil {
			return
		}
		if len(path) > len(s)/2 {
			t.Fatalf("%d points from %d bytes", len(path), len(s))
		}
		again, err := DecodePolyline(EncodePolyline(path))
		if err != nil {
			t.Fatalf("re-decoding the encoding of %v: %v", path, err)
		}
		if len(again) != len(path) {
			t.Fatalf("round trip gave %d points, want %d", len(again), len(path))
		}
		for i := range path {
			if again[i] != path[i] {
				t.Fatalf("point %d: round trip gave %v, want %v", i, again[i], path[i])
			}
		}
	})
}

func TestPolylineEncodesPrintableASCII(t *testing.T) {
	f := func(raw []int32) bool {
		path := make(Path, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			path = append(path, LatLng{
				Lat: float64(raw[i]%9000000) / 1e5,
				Lng: float64(raw[i+1]%18000000) / 1e5,
			})
		}
		s := EncodePolyline(path)
		for i := 0; i < len(s); i++ {
			if s[i] < 63 || s[i] > 127 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPolylineDecodeArbitraryInputNoPanic(t *testing.T) {
	// testing/quick as a lightweight fuzzer: decoding arbitrary strings must
	// never panic, only return errors.
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DecodePolyline(%q) panicked: %v", s, r)
			}
		}()
		_, _ = DecodePolyline(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRound5HalfAwayFromZero(t *testing.T) {
	if got := round5(0.000005); got != 1 {
		t.Errorf("round5(0.000005) = %d, want 1", got)
	}
	if got := round5(-0.000005); got != -1 {
		t.Errorf("round5(-0.000005) = %d, want -1", got)
	}
	if got := round5(math.Copysign(0, -1)); got != 0 {
		t.Errorf("round5(-0) = %d, want 0", got)
	}
}
