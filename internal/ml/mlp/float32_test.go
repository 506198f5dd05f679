package mlp

import (
	"math"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// float32TrainTol bounds how far Float32-trained probabilities may drift
// from the float64 reference on the same data and seed. Training error
// compounds across steps (float32 kernels + Adam32's reciprocal-multiply
// bias correction), so the tolerance is far looser than a single forward
// pass would need; at benchmark scale (400 samples, 4 epochs) the observed
// drift is ~5e-8, and these small-problem runs stay under ~1e-4.
const float32TrainTol = 1e-2

// TestFloat32TrainingTracksFloat64 trains the reduced-precision path and
// the float64 path on identical data and requires the class distributions
// to agree within the stated tolerance, with full argmax agreement.
func TestFloat32TrainingTracksFloat64(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {4, 0}, {0, 4}}, 20, 0.5, 33)
	cfg := DefaultConfig(3)
	cfg.Epochs = 10

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, ref, x, y)

	cfg32 := cfg
	cfg32.Float32 = true
	fast, err := New(cfg32)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, fast, x, y)

	var maxDiff float64
	p64, p32 := probs(t, ref, x), probs(t, fast, x)
	for i := range x {
		want, got := p64.Row(i), p32.Row(i)
		for k := range want {
			if d := math.Abs(want[k] - got[k]); d > maxDiff {
				maxDiff = d
			}
		}
		if linalg.ArgMax(want) != linalg.ArgMax(got) {
			t.Fatalf("sample %d: argmax disagrees (float64 %v, float32 %v)", i, want, got)
		}
	}
	if maxDiff > float32TrainTol {
		t.Fatalf("max probability drift %g exceeds %g", maxDiff, float32TrainTol)
	}
	if maxDiff == 0 {
		t.Fatal("float32 path produced bit-identical probabilities; reduced-precision kernels likely not exercised")
	}
}

// TestFloat32FitSparseTracksDense checks the Float32 knob's CSR training
// against the same batch with every zero stored (the dense layout): the
// float32 kernels may round differently once zero terms join the sums, so
// this is a tolerance comparison, not bit equality.
func TestFloat32FitSparseTracksDense(t *testing.T) {
	raw, y := blobs([][]float64{{0, 0}, {4, 0}, {0, 4}}, 20, 0.5, 34)
	x := padSparse(raw, 10)
	cfg := DefaultConfig(3)
	cfg.Epochs = 8
	cfg.Float32 = true

	dense, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.FitSparse(storeAll(x), y); err != nil {
		t.Fatal(err)
	}
	sparse, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, sparse, x, y)

	want, got := probs(t, dense, x), probs(t, sparse, x)
	for i := range want.Data {
		if d := math.Abs(want.Data[i] - got.Data[i]); d > float32TrainTol {
			t.Fatalf("probability %d: dense-layout-trained %v, sparse-trained %v (diff %g)",
				i, want.Data[i], got.Data[i], d)
		}
	}
}

// TestFloat32RefitMatchesFresh extends the refit contract to the
// reduced-precision path: Adam32 moments and the float32 shadow must reset
// on every Fit.
func TestFloat32RefitMatchesFresh(t *testing.T) {
	x, y := blobs([][]float64{{0}, {3}}, 10, 0.3, 35)
	cfg := testConfig(2)
	cfg.Float32 = true

	refit, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, refit, x, y)
	fit(t, refit, x, y)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, fresh, x, y)
	assertSameProbs(t, fresh, refit, x)
}
