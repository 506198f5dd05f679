package dem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"elevprivacy/internal/geo"
)

func TestTileName(t *testing.T) {
	tests := []struct {
		swLat, swLng int
		want         string
	}{
		{38, -78, "N38W078"},
		{-34, 18, "S34E018"},
		{0, 0, "N00E000"},
		{-1, -1, "S01W001"},
		{89, 179, "N89E179"},
		{-90, -180, "S90W180"},
	}
	for _, tc := range tests {
		tile, err := NewTile(tc.swLat, tc.swLng, 2)
		if err != nil {
			t.Fatalf("NewTile(%d,%d): %v", tc.swLat, tc.swLng, err)
		}
		if got := tile.Name(); got != tc.want {
			t.Errorf("Name(%d,%d) = %q, want %q", tc.swLat, tc.swLng, got, tc.want)
		}
	}
}

func TestParseTileName(t *testing.T) {
	for _, name := range []string{"N38W078", "S34E018", "N00E000", "S90W180"} {
		lat, lng, err := ParseTileName(name)
		if err != nil {
			t.Fatalf("ParseTileName(%q): %v", name, err)
		}
		tile, err := NewTile(lat, lng, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tile.Name() != name {
			t.Errorf("round trip %q -> (%d,%d) -> %q", name, lat, lng, tile.Name())
		}
	}
}

func TestParseTileNameErrors(t *testing.T) {
	bad := []string{"", "N38", "X38W078", "N38W78", "n38w078", "N91E000", "N38W181", "N38W078.hgt"}
	for _, name := range bad {
		if _, _, err := ParseTileName(name); err == nil {
			t.Errorf("ParseTileName(%q) succeeded, want error", name)
		}
	}
}

func TestTileNameRoundTripProperty(t *testing.T) {
	f := func(a, b int16) bool {
		swLat := mod(int(a), 180) - 90  // [-90, 89]
		swLng := mod(int(b), 360) - 180 // [-180, 179]
		tile, err := NewTile(swLat, swLng, 2)
		if err != nil {
			return false
		}
		lat, lng, err := ParseTileName(tile.Name())
		return err == nil && lat == swLat && lng == swLng
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHGTRoundTrip(t *testing.T) {
	tile, err := NewTile(38, -78, srtm3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for row := 0; row < srtm3; row++ {
		for col := 0; col < srtm3; col++ {
			tile.Set(row, col, int16(rng.Intn(4000)-100))
		}
	}
	tile.Set(5, 5, Void)

	var buf bytes.Buffer
	if err := tile.WriteHGT(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 2*srtm3*srtm3 {
		t.Fatalf("hgt payload = %d bytes, want %d", buf.Len(), 2*srtm3*srtm3)
	}

	back, err := ReadHGT(&buf, 38, -78)
	if err != nil {
		t.Fatal(err)
	}
	if back.SWLat != 38 || back.SWLng != -78 {
		t.Errorf("corner = (%d,%d), want (38,-78)", back.SWLat, back.SWLng)
	}
	if back.rows != srtm3 || back.cols != srtm3 {
		t.Fatalf("shape = %dx%d", back.rows, back.cols)
	}
	for row := 0; row < srtm3; row += 97 {
		for col := 0; col < srtm3; col += 89 {
			if back.At(row, col) != tile.At(row, col) {
				t.Fatalf("sample (%d,%d) = %d, want %d", row, col, back.At(row, col), tile.At(row, col))
			}
		}
	}
	if back.At(5, 5) != Void {
		t.Error("void sample lost in round trip")
	}
}

func TestHGTBigEndianLayout(t *testing.T) {
	tile, err := NewTile(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tile.Set(0, 0, 0x0102)
	tile.Set(0, 1, -2) // 0xFFFE
	tile.Set(1, 0, 3)
	tile.Set(1, 1, 4)
	var buf bytes.Buffer
	if err := tile.WriteHGT(&buf); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0x02, 0xFF, 0xFE, 0x00, 0x03, 0x00, 0x04}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("payload = %x, want %x", buf.Bytes(), want)
	}
}

func TestReadHGTRejectsBadSizes(t *testing.T) {
	if _, err := ReadHGT(bytes.NewReader(make([]byte, 100)), 0, 0); err == nil {
		t.Error("100-byte payload should be rejected")
	}
	if _, err := ReadHGT(bytes.NewReader(nil), 0, 0); err == nil {
		t.Error("empty payload should be rejected")
	}
}

func TestNewTileValidation(t *testing.T) {
	if _, err := NewTile(90, 0, 10); err == nil {
		t.Error("swLat=90 should be rejected (tile would exceed the pole)")
	}
	if _, err := NewTile(0, 180, 10); err == nil {
		t.Error("swLng=180 should be rejected")
	}
	if _, err := NewTile(0, 0, 1); err == nil {
		t.Error("size=1 should be rejected")
	}
}

func TestTileGeographicAlignment(t *testing.T) {
	tile, err := NewTile(38, -78, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := tile.bounds
	wantSW := geo.LatLng{Lat: 38, Lng: -78}
	wantNE := geo.LatLng{Lat: 39, Lng: -77}
	if b.SW != wantSW || b.NE != wantNE {
		t.Errorf("bounds = %v, want [%v %v]", b, wantSW, wantNE)
	}
}

// srtm3 is the per-side sample count of a 3-arc-second SRTM tile.
const srtm3 = 1201

// mod returns the non-negative remainder of a mod n.
func mod(a, n int) int {
	r := a % n
	if r < 0 {
		r += n
	}
	return r
}
