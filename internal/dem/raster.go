// Package dem provides digital-elevation-model rasters: the Source
// interface that the elevation service samples, an in-memory grid with
// bilinear sampling, and the SRTM .hgt tile wire format.
//
// The paper's pipeline reads elevation through the Google Maps Elevation
// API. The simulated API samples the procedural terrain directly through
// Source; Raster and the HGT codec are the stand-in for SRTM data, which
// the terrain can be rasterized into.
package dem

import (
	"errors"
	"fmt"
	"math"

	"elevprivacy/internal/geo"
)

// Void is the SRTM sentinel for missing data (no measurement).
const Void int16 = -32768

// ErrOutOfBounds is returned when a query point lies outside a raster.
var ErrOutOfBounds = errors.New("dem: point outside raster coverage")

// Source is anything that can answer point elevation queries. Raster and
// the procedural terrain implement it.
type Source interface {
	// ElevationAt returns the elevation in meters at p, or an error when p
	// is outside coverage.
	ElevationAt(p geo.LatLng) (float64, error)
}

// Raster is a regular elevation grid over a geographic bounding box.
// Row 0 is the NORTHERNMOST row, matching SRTM file order; column 0 is the
// westernmost column. Samples are meters above sea level.
type Raster struct {
	bounds geo.BBox
	rows   int
	cols   int
	data   []int16 // row-major, len == rows*cols
}

// NewRaster allocates a zero-elevation raster with the given shape.
func NewRaster(bounds geo.BBox, rows, cols int) (*Raster, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("dem: raster needs at least 2x2 samples, got %dx%d", rows, cols)
	}
	if !bounds.Valid() || bounds.AreaDeg2() == 0 {
		return nil, fmt.Errorf("dem: invalid raster bounds %v", bounds)
	}
	return &Raster{
		bounds: bounds,
		rows:   rows,
		cols:   cols,
		data:   make([]int16, rows*cols),
	}, nil
}

// At returns the raw sample at (row, col). Row 0 is the northern edge.
func (r *Raster) At(row, col int) int16 {
	return r.data[row*r.cols+col]
}

// Set writes the raw sample at (row, col).
func (r *Raster) Set(row, col int, v int16) {
	r.data[row*r.cols+col] = v
}

// Fill populates every sample from f(lat, lng), clamping to int16 range.
func (r *Raster) Fill(f func(lat, lng float64) float64) {
	for row := 0; row < r.rows; row++ {
		lat := r.rowLat(row)
		for col := 0; col < r.cols; col++ {
			v := f(lat, r.colLng(col))
			r.Set(row, col, clampInt16(v))
		}
	}
}

// rowLat maps a row index to its latitude (row 0 = north edge).
func (r *Raster) rowLat(row int) float64 {
	frac := float64(row) / float64(r.rows-1)
	return r.bounds.NE.Lat - frac*(r.bounds.NE.Lat-r.bounds.SW.Lat)
}

// colLng maps a column index to its longitude (col 0 = west edge).
func (r *Raster) colLng(col int) float64 {
	frac := float64(col) / float64(r.cols-1)
	return r.bounds.SW.Lng + frac*(r.bounds.NE.Lng-r.bounds.SW.Lng)
}

// ElevationAt bilinearly interpolates the elevation at p. Void samples
// contribute as the mean of their non-void neighbors in the 2×2 cell; a cell
// of all-void samples yields an ErrOutOfBounds-distinct error.
func (r *Raster) ElevationAt(p geo.LatLng) (float64, error) {
	if !r.bounds.Contains(p) {
		return 0, fmt.Errorf("%w: %v not in %v", ErrOutOfBounds, p, r.bounds)
	}

	// Continuous grid coordinates. y grows southward with rows.
	y := (r.bounds.NE.Lat - p.Lat) / (r.bounds.NE.Lat - r.bounds.SW.Lat) * float64(r.rows-1)
	x := (p.Lng - r.bounds.SW.Lng) / (r.bounds.NE.Lng - r.bounds.SW.Lng) * float64(r.cols-1)

	row0 := int(math.Floor(y))
	col0 := int(math.Floor(x))
	if row0 >= r.rows-1 {
		row0 = r.rows - 2
	}
	if col0 >= r.cols-1 {
		col0 = r.cols - 2
	}
	fy := y - float64(row0)
	fx := x - float64(col0)

	v00 := r.At(row0, col0)
	v01 := r.At(row0, col0+1)
	v10 := r.At(row0+1, col0)
	v11 := r.At(row0+1, col0+1)

	cell := [4]int16{v00, v01, v10, v11}
	var sum float64
	var valid int
	for _, v := range cell {
		if v != Void {
			sum += float64(v)
			valid++
		}
	}
	if valid == 0 {
		return 0, fmt.Errorf("dem: all-void cell at %v", p)
	}
	mean := sum / float64(valid)
	fill := func(v int16) float64 {
		if v == Void {
			return mean
		}
		return float64(v)
	}

	top := fill(v00)*(1-fx) + fill(v01)*fx
	bot := fill(v10)*(1-fx) + fill(v11)*fx
	return top*(1-fy) + bot*fy, nil
}

func clampInt16(v float64) int16 {
	switch {
	case math.IsNaN(v):
		return Void
	case v > math.MaxInt16:
		return math.MaxInt16
	case v < math.MinInt16+1:
		return math.MinInt16 + 1 // reserve Void
	default:
		return int16(math.Round(v))
	}
}
