package geo

import "fmt"

// Region is a named cluster of activity rectangles. Regions are how the
// paper labels the user-specific dataset: each activity's tight rectangle is
// assigned to the nearest existing region center within a threshold, or it
// founds a new region (paper §III-A1, Fig. 3).
type Region struct {
	// ID is a unique, stable identity ("R0", "R1", ...) in creation order.
	ID string
	// Bounds is the union of every member rectangle.
	Bounds BBox
	// Members is the number of rectangles assigned to the region.
	Members int

	// centerSumLat/centerSumLng accumulate member centers so the region
	// center is the running mean, keeping assignment order-robust.
	centerSumLat float64
	centerSumLng float64
}

// Center returns the mean center of the region's member rectangles.
func (r *Region) Center() LatLng {
	if r.Members == 0 {
		return r.Bounds.Center()
	}
	return LatLng{
		Lat: r.centerSumLat / float64(r.Members),
		Lng: r.centerSumLng / float64(r.Members),
	}
}

// RegionClusterer implements the paper's incremental labeling scheme: the
// Euclidean (great-circle) distance between a rectangle's center and an
// existing region's center decides membership.
type RegionClusterer struct {
	// ThresholdMeters is the maximum center-to-center distance for a
	// rectangle to join an existing region.
	ThresholdMeters float64

	regions []*Region
}

// NewRegionClusterer returns a clusterer with the given join threshold.
func NewRegionClusterer(thresholdMeters float64) *RegionClusterer {
	return &RegionClusterer{ThresholdMeters: thresholdMeters}
}

// Assign places the rectangle in the closest region within the threshold,
// creating a new region when none qualifies, and returns that region.
func (c *RegionClusterer) Assign(rect BBox) *Region {
	center := rect.Center()

	var best *Region
	bestDist := c.ThresholdMeters
	for _, r := range c.regions {
		d := center.DistanceMeters(r.Center())
		if d <= bestDist {
			best, bestDist = r, d
		}
	}
	if best == nil {
		best = &Region{
			ID:     fmt.Sprintf("R%d", len(c.regions)),
			Bounds: rect,
		}
		c.regions = append(c.regions, best)
	}

	best.Bounds = best.Bounds.Union(rect)
	best.Members++
	best.centerSumLat += center.Lat
	best.centerSumLng += center.Lng
	return best
}
