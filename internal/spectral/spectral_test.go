package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownSinusoid(t *testing.T) {
	// A pure cosine at bin 3 of a 64-point transform concentrates all
	// energy in bins 3 and 61.
	const n = 64
	const freq = 3
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(math.Cos(2*math.Pi*freq*float64(i)/n), 0)
	}
	if err := FFT(data); err != nil {
		t.Fatal(err)
	}
	for k := range data {
		mag := cmplx.Abs(data[k])
		if k == freq || k == n-freq {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Errorf("bin %d magnitude = %f, want %d", k, mag, n/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %g, want 0", k, mag)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / N.
	rng := rand.New(rand.NewSource(2))
	const n = 256
	data := make([]complex128, n)
	var timeEnergy float64
	for i := range data {
		v := rng.NormFloat64()
		data[i] = complex(v, 0)
		timeEnergy += v * v
	}
	if err := FFT(data); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, c := range data {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= n
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %f vs freq %f", timeEnergy, freqEnergy)
	}
}

func TestFFTValidation(t *testing.T) {
	if err := FFT(nil); err == nil {
		t.Error("empty input accepted")
	}
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("non-power-of-two length accepted")
	}
	if err := FFT(make([]complex128, 1)); err != nil {
		t.Errorf("length 1 rejected: %v", err)
	}
}

func TestPowerSpectrumDCOnly(t *testing.T) {
	sig := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	power, err := PowerSpectrum(sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(power) != 5 {
		t.Fatalf("one-sided length = %d, want 5", len(power))
	}
	if math.Abs(power[0]-1600) > 1e-9 { // (8*5)^2
		t.Errorf("DC power = %f, want 1600", power[0])
	}
	for k := 1; k < len(power); k++ {
		if power[k] > 1e-9 {
			t.Errorf("bin %d power = %g, want 0", k, power[k])
		}
	}
}

func TestHannWindowEndpoints(t *testing.T) {
	sig := []float64{1, 1, 1, 1, 1}
	HannWindow(sig)
	if sig[0] != 0 || sig[4] != 0 {
		t.Errorf("window endpoints = %f, %f; want 0", sig[0], sig[4])
	}
	if math.Abs(sig[2]-1) > 1e-12 {
		t.Errorf("window center = %f, want 1", sig[2])
	}
	// Degenerate lengths must not panic.
	one := []float64{3}
	HannWindow(one)
	if one[0] != 3 {
		t.Error("length-1 window modified the sample")
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{1, 2}, {2, 2}, {3, 4}, {128, 128}, {129, 256},
	}
	for _, tc := range tests {
		if got := nextPow2(tc.in); got != tc.want {
			t.Errorf("nextPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFeaturesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sig := make([]float64, 90)
	for i := range sig {
		sig[i] = 100 + rng.Float64()*20
	}
	cfg := DefaultFeatureConfig()
	f, err := Features(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != cfg.Bands {
		t.Errorf("feature dim = %d, want %d", len(f), cfg.Bands)
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("feature %d = %f", i, v)
		}
	}

	cfg.IncludeStats = true
	f, err = Features(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != cfg.Bands+3 {
		t.Errorf("with stats dim = %d, want %d", len(f), cfg.Bands+3)
	}
}

// TestFeaturesMeanInvariant pins the baseline's defining weakness: adding
// a constant altitude offset leaves the pure spectral features unchanged,
// so the features cannot tell a sea-level city from a mountain one.
func TestFeaturesMeanInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	low := make([]float64, 80)
	high := make([]float64, 80)
	for i := range low {
		v := rng.Float64() * 15
		low[i] = 5 + v
		high[i] = 1860 + v
	}
	cfg := DefaultFeatureConfig()
	fl, err := Features(low, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := Features(high, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fl {
		if math.Abs(fl[i]-fh[i]) > 1e-6 {
			t.Fatalf("spectral features see absolute altitude at band %d: %f vs %f", i, fl[i], fh[i])
		}
	}
}

func TestFeaturesValidation(t *testing.T) {
	if _, err := Features(nil, DefaultFeatureConfig()); err == nil {
		t.Error("empty signal accepted")
	}
	bad := DefaultFeatureConfig()
	bad.Bands = 0
	if _, err := Features([]float64{1, 2, 3}, bad); err == nil {
		t.Error("0 bands accepted")
	}
	bad = DefaultFeatureConfig()
	bad.ResamplePoints = 2
	if _, err := Features([]float64{1, 2, 3}, bad); err == nil {
		t.Error("2-point resample accepted")
	}
}

func TestFeaturesAll(t *testing.T) {
	sigs := [][]float64{{1, 2, 3, 4, 5}, {9, 8, 7, 6, 5}}
	fs, err := FeaturesAll(sigs, DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fs.Rows != 2 {
		t.Fatalf("rows = %d", fs.Rows)
	}
	if fs.Cols != DefaultFeatureConfig().Bands {
		t.Fatalf("cols = %d", fs.Cols)
	}
	if _, err := FeaturesAll([][]float64{{1}, nil}, DefaultFeatureConfig()); err == nil {
		t.Error("batch with empty signal accepted")
	}
	if _, err := FeaturesAll(nil, DefaultFeatureConfig()); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestStats(t *testing.T) {
	s := stats([]float64{1, 3, 2, 5})
	if math.Abs(s[0]-2.75) > 1e-12 {
		t.Errorf("mean = %f", s[0])
	}
	// Gains: 1->3 (+2), 2->5 (+3) = 5.
	if math.Abs(s[2]-5) > 1e-12 {
		t.Errorf("gain = %f", s[2])
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			var va, vb float64
			if 2*i < len(raw) {
				va = math.Mod(raw[2*i], 100)
			}
			if 2*i+1 < len(raw) {
				vb = math.Mod(raw[2*i+1], 100)
			}
			if math.IsNaN(va) || math.IsNaN(vb) {
				return true
			}
			a[i] = complex(va, 0)
			b[i] = complex(vb, 0)
			sum[i] = a[i] + b[i]
		}
		if FFT(a) != nil || FFT(b) != nil || FFT(sum) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
