package imagerep

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResample(t *testing.T) {
	t.Run("downsample preserves endpoints", func(t *testing.T) {
		sig := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		out, err := Resample(sig, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 5 || out[0] != 0 || out[4] != 9 {
			t.Errorf("out = %v", out)
		}
	})
	t.Run("upsample interpolates linearly", func(t *testing.T) {
		out, err := Resample([]float64{0, 10}, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{0, 2.5, 5, 7.5, 10}
		for i := range want {
			if math.Abs(out[i]-want[i]) > 1e-12 {
				t.Errorf("out[%d] = %f, want %f", i, out[i], want[i])
			}
		}
	})
	t.Run("single point repeats", func(t *testing.T) {
		out, err := Resample([]float64{7}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range out {
			if v != 7 {
				t.Errorf("out = %v", out)
			}
		}
	})
	t.Run("errors", func(t *testing.T) {
		if _, err := Resample(nil, 5); err == nil {
			t.Error("empty signal accepted")
		}
		if _, err := Resample([]float64{1}, 0); err == nil {
			t.Error("n=0 accepted")
		}
	})
}

func TestResampleStaysOnConstantSegment(t *testing.T) {
	// The unclamped blend a·(1−f) + b·f rounds past a == b on both inputs:
	// to 0.10000000000000002, and to about 2e292 below −1.7e308.
	for _, v := range []float64{0.1, -1.7e308} {
		out, err := Resample([]float64{v, v}, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range out {
			if got != v {
				t.Fatalf("Resample([%v %v], 6)[%d] = %v, want %v", v, v, i, got, v)
			}
		}
	}
}

func TestResampleBoundsProperty(t *testing.T) {
	f := func(raw []float64, nSeed uint8) bool {
		sig := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sig = append(sig, v)
			}
		}
		if len(sig) == 0 {
			return true
		}
		n := int(nSeed%64) + 1
		out, err := Resample(sig, n)
		if err != nil || len(out) != n {
			return false
		}
		// Linear interpolation never exceeds the source extremes.
		minV, maxV := sig[0], sig[0]
		for _, v := range sig {
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		for _, v := range out {
			if v < minV || v > maxV {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tiny raster", func(c *Config) { c.Width = 2 }},
		{"resample too small", func(c *Config) { c.ResamplePoints = 1 }},
		{"no intervals", func(c *Config) { c.Intervals = nil }},
		{"non-ascending bounds", func(c *Config) {
			c.Intervals = []Interval{{UpToMeters: 50}, {UpToMeters: 10}}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if _, err := Render([]float64{1, 2, 3}, cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := Render(nil, DefaultConfig()); err == nil {
		t.Error("empty signal accepted")
	}
}

func TestRenderShapeAndRange(t *testing.T) {
	cfg := DefaultConfig()
	sig := []float64{50, 55, 60, 58, 52, 49, 51, 56}
	im, err := Render(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if im.Channels != 3 || im.Height != 32 || im.Width != 32 {
		t.Fatalf("shape = %dx%dx%d", im.Channels, im.Height, im.Width)
	}
	var lit int
	for _, v := range im.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel value %f out of range", v)
		}
		if v > 0 {
			lit++
		}
	}
	if lit == 0 {
		t.Fatal("nothing drawn")
	}
}

func TestRenderLineSpansWidth(t *testing.T) {
	im, err := Render([]float64{1, 5, 2, 8, 3, 9, 4}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every column must contain at least one lit pixel: the line graph is a
	// function of x covering the full time axis.
	for x := 0; x < im.Width; x++ {
		var lit bool
		for y := 0; y < im.Height && !lit; y++ {
			if at(im, 0, y, x) > 0 || at(im, 1, y, x) > 0 || at(im, 2, y, x) > 0 {
				lit = true
			}
		}
		if !lit {
			t.Errorf("column %d empty", x)
		}
	}
}

func TestRenderYAxisUsesSignalExtremes(t *testing.T) {
	// Rising signal: the first column must be lit near the bottom, the last
	// near the top (y inverted).
	im, err := Render([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bottomLit := at(im, 0, im.Height-1, 0) > 0
	topLit := at(im, 0, 0, im.Width-1) > 0
	if !bottomLit {
		t.Error("signal minimum not drawn at the bottom-left")
	}
	if !topLit {
		t.Error("signal maximum not drawn at the top-right")
	}
}

func TestRenderFlatSignal(t *testing.T) {
	im, err := Render([]float64{42, 42, 42, 42}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Flat profile: exactly one lit row.
	litRows := map[int]bool{}
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			if at(im, 0, y, x) > 0 {
				litRows[y] = true
			}
		}
	}
	if len(litRows) != 1 {
		t.Errorf("flat signal lit %d rows, want 1", len(litRows))
	}
}

func TestColorEncodesElevationInterval(t *testing.T) {
	cfg := DefaultConfig()
	// Shape-identical signals at sea level vs mountain altitude must render
	// with different colors — that is the entire point of the encoding.
	low := []float64{2, 3, 4, 3, 2, 3}
	high := []float64{1860, 1861, 1862, 1861, 1860, 1861}

	imLow, err := Render(low, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imHigh, err := Render(high, cfg)
	if err != nil {
		t.Fatal(err)
	}

	colorAt := func(im *Image) Color {
		for y := 0; y < im.Height; y++ {
			for x := 0; x < im.Width; x++ {
				c := Color{at(im, 0, y, x), at(im, 1, y, x), at(im, 2, y, x)}
				if c[0] > 0 || c[1] > 0 || c[2] > 0 {
					return c
				}
			}
		}
		return Color{}
	}
	if colorAt(imLow) == colorAt(imHigh) {
		t.Error("sea-level and mountain signals rendered with identical colors")
	}
}

func TestColorForIntervals(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		mean float64
		want Color
	}{
		{2, cfg.Intervals[0].Color},
		{12, cfg.Intervals[2].Color},   // 10 <= 12 < 16
		{999, cfg.Intervals[13].Color}, // 700 <= 999 < 1000
		{9999, cfg.OverflowColor},
	}
	for _, tc := range tests {
		sig := []float64{tc.mean, tc.mean}
		if got := cfg.colorFor(sig); got != tc.want {
			t.Errorf("colorFor(mean %f) = %v, want %v", tc.mean, got, tc.want)
		}
	}
}

func TestImageAtSetRoundTrip(t *testing.T) {
	im := NewImage(3, 4, 5)
	im.Set(2, 3, 4, 0.5)
	if got := at(im, 2, 3, 4); got != 0.5 {
		t.Errorf("At = %f", got)
	}
	if got := at(im, 0, 0, 0); got != 0 {
		t.Errorf("untouched pixel = %f", got)
	}
	if len(im.Data) != 60 {
		t.Errorf("data len = %d", len(im.Data))
	}
}

func TestRenderDeterministic(t *testing.T) {
	sig := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a, err := Render(sig, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Render(sig, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("render not deterministic")
		}
	}
}

// at returns the pixel value at (channel, y, x).
func at(im *Image, c, y, x int) float64 {
	return im.Data[(c*im.Height+y)*im.Width+x]
}
