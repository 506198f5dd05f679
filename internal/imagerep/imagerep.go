// Package imagerep implements the paper's image-like representation
// (§III-B2): an elevation signal is resampled to a fixed number of points
// and drawn as a line graph on a small raster, with the line color encoding
// the absolute elevation interval the signal lives in. Per-sample y-axis
// normalization makes the line shape encode the profile's relative
// dynamics, while color carries its absolute range — together they use the
// small feature space efficiently.
package imagerep

import (
	"fmt"
	"math"
)

// Image is a dense multi-channel raster in CHW layout, values in [0, 1].
type Image struct {
	// Channels, Height, Width describe the shape.
	Channels int
	Height   int
	Width    int
	// Data is the CHW-ordered pixel storage, len = Channels*Height*Width.
	Data []float64
}

// NewImage allocates a zero image.
func NewImage(channels, height, width int) *Image {
	return &Image{
		Channels: channels,
		Height:   height,
		Width:    width,
		Data:     make([]float64, channels*height*width),
	}
}

// Set writes the pixel value at (channel, y, x).
func (im *Image) Set(c, y, x int, v float64) {
	im.Data[(c*im.Height+y)*im.Width+x] = v
}

// Color is an RGB triple in [0, 1].
type Color [3]float64

// Interval maps elevations below UpToMeters onto a Color. Intervals are
// checked in order; the first match wins.
type Interval struct {
	// UpToMeters is the exclusive upper bound of the interval.
	UpToMeters float64
	// Color is the line color for signals whose mean falls in the interval.
	Color Color
}

// Config controls rendering.
type Config struct {
	// Width and Height are the raster dimensions (paper: 32×32).
	Width  int
	Height int
	// ResamplePoints is the fixed point count the signal is reduced to
	// (paper: 200).
	ResamplePoints int
	// Intervals is the elevation-interval color scale, ascending by
	// UpToMeters; signals above the last bound use OverflowColor.
	Intervals []Interval
	// OverflowColor colors signals above every interval bound.
	OverflowColor Color
}

// DefaultConfig matches the paper's settings: 32×32 rasters, 200 resampled
// points, and an 8-step elevation color scale spanning coastal plains to
// mountain cities.
func DefaultConfig() Config {
	return Config{
		Width:          32,
		Height:         32,
		ResamplePoints: 200,
		Intervals:      DefaultIntervals(),
		OverflowColor:  Color{1.00, 0.10, 0.40},
	}
}

// validate reports the first problem with the config.
func (c Config) validate() error {
	switch {
	case c.Width < 4 || c.Height < 4:
		return fmt.Errorf("imagerep: raster %dx%d too small", c.Width, c.Height)
	case c.ResamplePoints < 2:
		return fmt.Errorf("imagerep: ResamplePoints must be >= 2, got %d", c.ResamplePoints)
	case len(c.Intervals) == 0:
		return fmt.Errorf("imagerep: no color intervals")
	}
	for i := 1; i < len(c.Intervals); i++ {
		if c.Intervals[i].UpToMeters <= c.Intervals[i-1].UpToMeters {
			return fmt.Errorf("imagerep: interval bounds not ascending at %d", i)
		}
	}
	return nil
}

// colorFor picks the line color for a signal from its mean elevation.
func (c Config) colorFor(signal []float64) Color {
	var sum float64
	for _, e := range signal {
		sum += e
	}
	mean := sum / float64(len(signal))
	for _, iv := range c.Intervals {
		if mean < iv.UpToMeters {
			return iv.Color
		}
	}
	return c.OverflowColor
}

// DefaultIntervals returns the default elevation color scale: geometric
// interval bounds from 5 m to 2400 m, colored along a hue sweep so nearby
// intervals get nearby (but distinct) colors. Fine low-altitude bands let
// the CNN separate boroughs of one city, whose mean elevations differ by
// tens of meters.
func DefaultIntervals() []Interval {
	bounds := []float64{5, 10, 16, 25, 40, 60, 90, 130, 180, 250, 350, 500, 700, 1000, 1500, 2400}
	out := make([]Interval, len(bounds))
	for i, b := range bounds {
		// Hue sweep blue -> green -> red across the scale.
		t := float64(i) / float64(len(bounds)-1)
		out[i] = Interval{UpToMeters: b, Color: hueColor(t)}
	}
	return out
}

// hueColor maps t in [0,1] onto a blue->cyan->green->yellow->red sweep.
func hueColor(t float64) Color {
	switch {
	case t < 0.25:
		k := t / 0.25
		return Color{0.05, 0.2 + 0.8*k, 1.0}
	case t < 0.5:
		k := (t - 0.25) / 0.25
		return Color{0.05, 1.0, 1.0 - 0.9*k}
	case t < 0.75:
		k := (t - 0.5) / 0.25
		return Color{0.05 + 0.95*k, 1.0, 0.1}
	default:
		k := (t - 0.75) / 0.25
		return Color{1.0, 1.0 - 0.9*k, 0.1}
	}
}

// Resample reduces or expands a signal to exactly n points by linear
// interpolation over the sample index, the "dividing the elevation signal
// into equal-sized parts" step of the paper.
func Resample(signal []float64, n int) ([]float64, error) {
	if len(signal) == 0 {
		return nil, fmt.Errorf("imagerep: empty signal")
	}
	if n < 1 {
		return nil, fmt.Errorf("imagerep: n must be >= 1, got %d", n)
	}
	out := make([]float64, n)
	if len(signal) == 1 || n == 1 {
		for i := range out {
			out[i] = signal[0]
		}
		return out, nil
	}
	scale := float64(len(signal)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(math.Floor(pos))
		if lo >= len(signal)-1 {
			lo = len(signal) - 2
		}
		frac := pos - float64(lo)
		a, b := signal[lo], signal[lo+1]
		// Rounding can carry the blend an ulp past its segment's ends (to
		// ±Inf near ±MaxFloat64), so clamp it back onto the segment.
		out[i] = min(max(a*(1-frac)+b*frac, min(a, b)), max(a, b))
	}
	return out, nil
}

// Render draws the signal as a colored line graph: x is time (sample
// index), y is elevation normalized to the SIGNAL's own min/max (the
// paper's per-sample extremes), and all three channels carry the interval
// color along the line.
func Render(signal []float64, cfg Config) (*Image, error) {
	im := NewImage(3, cfg.Height, cfg.Width)
	if err := renderInto(signal, cfg, im); err != nil {
		return nil, err
	}
	return im, nil
}

// renderInto rasterizes the signal into a caller-owned (zeroed) image —
// typically a row view of a batch matrix.
func renderInto(signal []float64, cfg Config, im *Image) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(signal) == 0 {
		return fmt.Errorf("imagerep: empty signal")
	}

	pts, err := Resample(signal, cfg.ResamplePoints)
	if err != nil {
		return err
	}

	minV, maxV := pts[0], pts[0]
	for _, v := range pts {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	span := maxV - minV
	// A span within interpolation round-off of zero is a flat profile; it
	// draws as a horizontal midline rather than amplified float noise.
	flat := span <= 1e-9*math.Max(1, math.Abs(maxV))

	color := cfg.colorFor(signal)

	toXY := func(i int) (x, y float64) {
		x = float64(i) / float64(len(pts)-1) * float64(cfg.Width-1)
		norm := 0.5
		if !flat {
			norm = (pts[i] - minV) / span // 0 at min, 1 at max
		}
		y = (1 - norm) * float64(cfg.Height-1)
		return x, y
	}

	prevX, prevY := toXY(0)
	plot(im, prevX, prevY, color)
	for i := 1; i < len(pts); i++ {
		x, y := toXY(i)
		drawSegment(im, prevX, prevY, x, y, color)
		prevX, prevY = x, y
	}
	return nil
}

// drawSegment rasterizes the line from (x0,y0) to (x1,y1) by uniform
// stepping at sub-pixel resolution.
func drawSegment(im *Image, x0, y0, x1, y1 float64, c Color) {
	dist := math.Hypot(x1-x0, y1-y0)
	steps := int(dist*2) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		plot(im, x0+(x1-x0)*t, y0+(y1-y0)*t, c)
	}
}

// plot writes the color at the nearest pixel.
func plot(im *Image, x, y float64, c Color) {
	xi := int(math.Round(x))
	yi := int(math.Round(y))
	if xi < 0 || xi >= im.Width || yi < 0 || yi >= im.Height {
		return
	}
	for ch := 0; ch < 3; ch++ {
		im.Set(ch, yi, xi, c[ch])
	}
}
