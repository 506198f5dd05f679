package geo

import (
	"fmt"
	"math"
	"strings"
)

// The Google encoded-polyline algorithm, the wire format the paper's miner
// receives geolocation paths in and the elevation API accepts them in.
// Coordinates are delta-encoded at 1e-5 precision, zig-zagged, and packed
// into printable ASCII 5 bits at a time.

const polylineScale = 1e5

// EncodePolyline encodes a path using Google's polyline algorithm.
// An empty path encodes to "".
func EncodePolyline(path Path) string {
	var sb strings.Builder
	var prevLat, prevLng int64
	for _, p := range path {
		lat := round5(p.Lat)
		lng := round5(p.Lng)
		encodeSigned(&sb, lat-prevLat)
		encodeSigned(&sb, lng-prevLng)
		prevLat, prevLng = lat, lng
	}
	return sb.String()
}

// DecodePolyline decodes a Google encoded polyline back to a path. A point
// off the globe (not LatLng.Valid) is an error naming its byte offset:
// polylines arrive from the network, and far enough out a float64 no
// longer holds the format's 1e-5 degree grid.
func DecodePolyline(s string) (Path, error) {
	var path Path
	var lat, lng int64
	i := 0
	for i < len(s) {
		start := i
		dLat, n, err := decodeSigned(s[i:])
		if err != nil {
			return nil, fmt.Errorf("polyline: latitude at byte %d: %w", i, err)
		}
		i += n
		dLng, n, err := decodeSigned(s[i:])
		if err != nil {
			return nil, fmt.Errorf("polyline: longitude at byte %d: %w", i, err)
		}
		i += n
		lat += dLat
		lng += dLng
		p := LatLng{Lat: float64(lat) / polylineScale, Lng: float64(lng) / polylineScale}
		if !p.Valid() {
			return nil, fmt.Errorf("polyline: point at byte %d is off the globe: %v", start, p)
		}
		path = append(path, p)
	}
	return path, nil
}

// round5 converts degrees to the 1e-5 fixed-point representation, rounding
// half away from zero as the reference implementation does.
func round5(deg float64) int64 {
	return int64(math.Round(deg * polylineScale))
}

func encodeSigned(sb *strings.Builder, v int64) {
	// Zig-zag: left-shift and invert when negative so the sign lives in bit 0.
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	for u >= 0x20 {
		sb.WriteByte(byte((u&0x1f)|0x20) + 63)
		u >>= 5
	}
	sb.WriteByte(byte(u) + 63)
}

func decodeSigned(s string) (value int64, n int, err error) {
	var u uint64
	var shift uint
	for {
		if n >= len(s) {
			return 0, 0, fmt.Errorf("truncated varint")
		}
		c := s[n]
		if c < 63 || c > 127 {
			return 0, 0, fmt.Errorf("invalid byte %q", c)
		}
		chunk := uint64(c - 63)
		u |= (chunk & 0x1f) << shift
		n++
		if chunk < 0x20 {
			break
		}
		shift += 5
		if shift > 60 {
			return 0, 0, fmt.Errorf("varint overflow")
		}
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, n, nil
}
