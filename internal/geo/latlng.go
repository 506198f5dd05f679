// Package geo provides the geodetic primitives the rest of the system is
// built on: coordinates, great-circle math, bounding boxes, the Google
// polyline codec, grid decomposition of areas, and the tight-rectangle
// region clustering the paper uses to label user-specific activities.
//
// All angles are degrees unless a name says otherwise. Distances are meters.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for all great-circle math.
const EarthRadiusMeters = 6371008.8

// LatLng is a WGS84 coordinate in degrees.
type LatLng struct {
	Lat float64
	Lng float64
}

// Valid reports whether the coordinate lies in the usual lat/lng domain.
func (p LatLng) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

// String implements fmt.Stringer with 6-decimal precision (~11 cm).
func (p LatLng) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lng)
}

// DistanceMeters returns the haversine great-circle distance to q.
func (p LatLng) DistanceMeters(q LatLng) float64 {
	lat1 := radians(p.Lat)
	lat2 := radians(q.Lat)
	dLat := radians(q.Lat - p.Lat)
	dLng := radians(q.Lng - p.Lng)

	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLng*sinLng
	if a > 1 {
		a = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(a))
}

// BearingDegrees returns the initial bearing from p to q, in [0, 360).
func (p LatLng) BearingDegrees(q LatLng) float64 {
	lat1 := radians(p.Lat)
	lat2 := radians(q.Lat)
	dLng := radians(q.Lng - p.Lng)

	y := math.Sin(dLng) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLng)
	b := degrees(math.Atan2(y, x))
	return math.Mod(b+360, 360)
}

// Destination returns the point reached by travelling distanceMeters from p
// along the given initial bearing (degrees clockwise from north).
func (p LatLng) Destination(bearingDegrees, distanceMeters float64) LatLng {
	ang := distanceMeters / EarthRadiusMeters
	brg := radians(bearingDegrees)
	lat1 := radians(p.Lat)
	lng1 := radians(p.Lng)

	sinLat2 := math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brg) * math.Sin(ang) * math.Cos(lat1)
	x := math.Cos(ang) - math.Sin(lat1)*sinLat2
	lng2 := lng1 + math.Atan2(y, x)

	return LatLng{Lat: degrees(lat2), Lng: normalizeLng(degrees(lng2))}
}

// Interpolate returns the point a fraction t of the way from p to q along
// the straight (equirectangular) segment. t outside [0,1] extrapolates.
// For the sub-kilometer hops routes are made of, the error versus true
// great-circle interpolation is negligible.
func (p LatLng) Interpolate(q LatLng, t float64) LatLng {
	return LatLng{
		Lat: p.Lat + (q.Lat-p.Lat)*t,
		Lng: p.Lng + (q.Lng-p.Lng)*t,
	}
}

// Path is an ordered sequence of coordinates (a trajectory or polyline).
type Path []LatLng

// Resample returns a path of exactly n points evenly spaced by arc length
// along t. It returns nil when t is empty or n <= 0. A single-point path is
// repeated n times.
func (t Path) Resample(n int) Path {
	if len(t) == 0 || n <= 0 {
		return nil
	}
	out := make(Path, 0, n)
	if len(t) == 1 || n == 1 {
		for i := 0; i < n; i++ {
			out = append(out, t[0])
		}
		return out
	}

	// Cumulative arc length per vertex.
	cum := make([]float64, len(t))
	for i := 1; i < len(t); i++ {
		cum[i] = cum[i-1] + t[i-1].DistanceMeters(t[i])
	}
	total := cum[len(cum)-1]
	if total == 0 {
		for i := 0; i < n; i++ {
			out = append(out, t[0])
		}
		return out
	}

	seg := 0
	for i := 0; i < n; i++ {
		target := total * float64(i) / float64(n-1)
		for seg < len(cum)-2 && cum[seg+1] < target {
			seg++
		}
		span := cum[seg+1] - cum[seg]
		frac := 0.0
		if span > 0 {
			frac = (target - cum[seg]) / span
		}
		out = append(out, t[seg].Interpolate(t[seg+1], frac))
	}
	return out
}

// Bounds returns the tight bounding rectangle of the path, the "tight
// rectangle" of the paper's Fig. 3. ok is false for an empty path.
func (t Path) Bounds() (b BBox, ok bool) {
	if len(t) == 0 {
		return BBox{}, false
	}
	b = BBox{SW: t[0], NE: t[0]}
	for _, p := range t[1:] {
		b.SW.Lat = math.Min(b.SW.Lat, p.Lat)
		b.SW.Lng = math.Min(b.SW.Lng, p.Lng)
		b.NE.Lat = math.Max(b.NE.Lat, p.Lat)
		b.NE.Lng = math.Max(b.NE.Lng, p.Lng)
	}
	return b, true
}

// Clone returns a deep copy of the path.
func (t Path) Clone() Path {
	if t == nil {
		return nil
	}
	out := make(Path, len(t))
	copy(out, t)
	return out
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// normalizeLng wraps a longitude into [-180, 180).
func normalizeLng(lng float64) float64 {
	lng = math.Mod(lng+180, 360)
	if lng < 0 {
		lng += 360
	}
	return lng - 180
}
