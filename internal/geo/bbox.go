package geo

import (
	"fmt"
	"math"
)

// BBox is an axis-aligned bounding rectangle described, as in the paper, by
// its south-west (bottom-left) and north-east (top-right) corners.
// Boxes never span the antimeridian; the synthetic world avoids it.
type BBox struct {
	SW LatLng
	NE LatLng
}

// NewBBox builds a normalized box from any two opposite corners.
func NewBBox(a, b LatLng) BBox {
	return BBox{
		SW: LatLng{Lat: math.Min(a.Lat, b.Lat), Lng: math.Min(a.Lng, b.Lng)},
		NE: LatLng{Lat: math.Max(a.Lat, b.Lat), Lng: math.Max(a.Lng, b.Lng)},
	}
}

// Valid reports whether the corners are ordered and in-domain.
func (b BBox) Valid() bool {
	return b.SW.Valid() && b.NE.Valid() && b.SW.Lat <= b.NE.Lat && b.SW.Lng <= b.NE.Lng
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	return fmt.Sprintf("[%v %v]", b.SW, b.NE)
}

// Center returns the rectangle's center point.
func (b BBox) Center() LatLng {
	return LatLng{Lat: (b.SW.Lat + b.NE.Lat) / 2, Lng: (b.SW.Lng + b.NE.Lng) / 2}
}

// Contains reports whether p lies inside the box (inclusive of edges).
func (b BBox) Contains(p LatLng) bool {
	return p.Lat >= b.SW.Lat && p.Lat <= b.NE.Lat &&
		p.Lng >= b.SW.Lng && p.Lng <= b.NE.Lng
}

// ContainsPath reports whether every vertex of t lies inside b. This is the
// encapsulation test ExploreSegments applies: a segment straddling a region
// boundary belongs to no region.
func (b BBox) ContainsPath(t Path) bool {
	if len(t) == 0 {
		return false
	}
	for _, p := range t {
		if !b.Contains(p) {
			return false
		}
	}
	return true
}

// Intersect returns the overlapping box and whether it is non-empty.
func (b BBox) Intersect(o BBox) (BBox, bool) {
	out := BBox{
		SW: LatLng{Lat: math.Max(b.SW.Lat, o.SW.Lat), Lng: math.Max(b.SW.Lng, o.SW.Lng)},
		NE: LatLng{Lat: math.Min(b.NE.Lat, o.NE.Lat), Lng: math.Min(b.NE.Lng, o.NE.Lng)},
	}
	if out.SW.Lat > out.NE.Lat || out.SW.Lng > out.NE.Lng {
		return BBox{}, false
	}
	return out, true
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	return BBox{
		SW: LatLng{Lat: math.Min(b.SW.Lat, o.SW.Lat), Lng: math.Min(b.SW.Lng, o.SW.Lng)},
		NE: LatLng{Lat: math.Max(b.NE.Lat, o.NE.Lat), Lng: math.Max(b.NE.Lng, o.NE.Lng)},
	}
}

// AreaDeg2 returns the rectangle area in squared degrees. Degree area is what
// the paper's intersection-over-union overlap ratio is computed on; at the
// city scales involved the latitude distortion cancels out of the ratio.
func (b BBox) AreaDeg2() float64 {
	return (b.NE.Lat - b.SW.Lat) * (b.NE.Lng - b.SW.Lng)
}

// IoU returns the intersection-over-union of the two rectangles, the
// paper's per-pair route overlap measure. Two empty (zero-area) boxes
// have IoU 0.
func (b BBox) IoU(o BBox) float64 {
	inter, ok := b.Intersect(o)
	if !ok {
		return 0
	}
	interArea := inter.AreaDeg2()
	unionArea := b.AreaDeg2() + o.AreaDeg2() - interArea
	if unionArea <= 0 {
		return 0
	}
	return interArea / unionArea
}

// Expand grows the box by the given margins, in degrees, on every side.
func (b BBox) Expand(latMargin, lngMargin float64) BBox {
	return BBox{
		SW: LatLng{Lat: b.SW.Lat - latMargin, Lng: b.SW.Lng - lngMargin},
		NE: LatLng{Lat: b.NE.Lat + latMargin, Lng: b.NE.Lng + lngMargin},
	}
}

// Grid splits the box into rows×cols disjoint cells, row-major from the
// south-west corner. This is the grid decomposition of the paper's Fig. 4
// used to defeat the top-10-per-boundary limit of ExploreSegments.
func (b BBox) Grid(rows, cols int) []BBox {
	if rows <= 0 || cols <= 0 {
		return nil
	}
	cells := make([]BBox, 0, rows*cols)
	dLat := (b.NE.Lat - b.SW.Lat) / float64(rows)
	dLng := (b.NE.Lng - b.SW.Lng) / float64(cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sw := LatLng{Lat: b.SW.Lat + dLat*float64(r), Lng: b.SW.Lng + dLng*float64(c)}
			cells = append(cells, BBox{
				SW: sw,
				NE: LatLng{Lat: sw.Lat + dLat, Lng: sw.Lng + dLng},
			})
		}
	}
	return cells
}
