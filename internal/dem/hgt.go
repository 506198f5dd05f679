package dem

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"

	"elevprivacy/internal/geo"
)

// SRTM .hgt wire format: a 1°×1° tile is a square grid of big-endian int16
// samples, row-major from the north-west corner. SRTM3 tiles are 1201×1201
// (3 arc-second), SRTM1 tiles 3601×3601 (1 arc-second). Rows and columns
// overlap neighbouring tiles by one sample. The tile's name encodes the
// latitude/longitude of its SOUTH-WEST corner, e.g. N38W078.hgt.

// Tile is a single SRTM tile: a Raster whose bounds are an integer-degree
// 1°×1° cell.
type Tile struct {
	*Raster
	// SWLat and SWLng are the integer coordinates of the south-west corner.
	SWLat int
	SWLng int
}

// NewTile allocates an empty (zero elevation) tile with the given per-side
// sample count (1201 for SRTM3, 3601 for SRTM1).
func NewTile(swLat, swLng, size int) (*Tile, error) {
	if swLat < -90 || swLat > 89 || swLng < -180 || swLng > 179 {
		return nil, fmt.Errorf("dem: tile corner (%d,%d) out of range", swLat, swLng)
	}
	if size < 2 {
		return nil, fmt.Errorf("dem: tile size %d too small", size)
	}
	bounds := geo.BBox{
		SW: geo.LatLng{Lat: float64(swLat), Lng: float64(swLng)},
		NE: geo.LatLng{Lat: float64(swLat + 1), Lng: float64(swLng + 1)},
	}
	r, err := NewRaster(bounds, size, size)
	if err != nil {
		return nil, err
	}
	return &Tile{Raster: r, SWLat: swLat, SWLng: swLng}, nil
}

// Name returns the canonical SRTM file stem for the tile, e.g. "N38W078".
func (t *Tile) Name() string {
	latHemi, lat := 'N', t.SWLat
	if lat < 0 {
		latHemi, lat = 'S', -lat
	}
	lngHemi, lng := 'E', t.SWLng
	if lng < 0 {
		lngHemi, lng = 'W', -lng
	}
	return fmt.Sprintf("%c%02d%c%03d", latHemi, lat, lngHemi, lng)
}

var tileNameRe = regexp.MustCompile(`^([NS])(\d{2})([EW])(\d{3})$`)

// ParseTileName parses a canonical SRTM stem ("N38W078") into the south-west
// corner coordinates.
func ParseTileName(name string) (swLat, swLng int, err error) {
	m := tileNameRe.FindStringSubmatch(name)
	if m == nil {
		return 0, 0, fmt.Errorf("dem: malformed tile name %q", name)
	}
	swLat, _ = strconv.Atoi(m[2])
	if m[1] == "S" {
		swLat = -swLat
	}
	swLng, _ = strconv.Atoi(m[4])
	if m[3] == "W" {
		swLng = -swLng
	}
	if swLat > 89 || swLat < -90 || swLng > 179 || swLng < -180 {
		return 0, 0, fmt.Errorf("dem: tile name %q out of range", name)
	}
	return swLat, swLng, nil
}

// WriteHGT serializes the tile in SRTM .hgt format: size*size big-endian
// int16 samples, row-major, north row first.
func (t *Tile) WriteHGT(w io.Writer) error {
	buf := make([]byte, 2*t.cols)
	for row := 0; row < t.rows; row++ {
		for col := 0; col < t.cols; col++ {
			binary.BigEndian.PutUint16(buf[2*col:], uint16(t.At(row, col)))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("dem: writing hgt row %d: %w", row, err)
		}
	}
	return nil
}

// ReadHGT parses an SRTM .hgt stream. The grid side length is inferred from
// the byte count, which must be 2*size² for a square grid (1201 or 3601 for
// real SRTM data). swLat/swLng locate the tile (normally parsed from the
// file name).
func ReadHGT(rd io.Reader, swLat, swLng int) (*Tile, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("dem: reading hgt: %w", err)
	}
	size, err := hgtSide(len(raw))
	if err != nil {
		return nil, err
	}
	tile, err := NewTile(swLat, swLng, size)
	if err != nil {
		return nil, err
	}
	for i := 0; i < size*size; i++ {
		tile.data[i] = int16(binary.BigEndian.Uint16(raw[2*i:]))
	}
	return tile, nil
}

// hgtSide returns the grid side length for a .hgt payload of n bytes: the
// payload must be a square int16 grid (real SRTM tiles are 1201² or 3601²;
// any square side >= 2 is accepted so down-scaled mirrors parse too).
func hgtSide(n int) (int, error) {
	if n < 8 || n%2 != 0 {
		return 0, fmt.Errorf("dem: %d bytes is not a square int16 grid", n)
	}
	samples := n / 2
	side := int(math.Sqrt(float64(samples)))
	for s := side - 1; s <= side+1; s++ {
		if s >= 2 && s*s == samples {
			return s, nil
		}
	}
	return 0, fmt.Errorf("dem: %d bytes is not a square int16 grid", n)
}
