package mlp

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

func blobs(centers [][]float64, perClass int, spread float64, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for c, center := range centers {
		for i := 0; i < perClass; i++ {
			p := make([]float64, len(center))
			for d := range center {
				p[d] = center[d] + rng.NormFloat64()*spread
			}
			x = append(x, p)
			y = append(y, c)
		}
	}
	return x, y
}

func testConfig(classes int) Config {
	cfg := DefaultConfig(classes)
	cfg.Hidden = 32
	cfg.Epochs = 80
	return cfg
}

// csr converts dense rows to the CSR batch the network consumes.
func csr(t testing.TB, x [][]float64) *linalg.SparseMatrix {
	t.Helper()
	m, err := linalg.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	return linalg.SparseFromDense(m)
}

// fit trains m on dense rows through FitSparse.
func fit(t testing.TB, m *MLP, x [][]float64, y []int) {
	t.Helper()
	if err := m.FitSparse(csr(t, x), y); err != nil {
		t.Fatal(err)
	}
}

// probs returns the class distribution of every row of x.
func probs(t testing.TB, m *MLP, x [][]float64) *linalg.Matrix {
	t.Helper()
	p, err := m.ScoresSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func accuracy(t *testing.T, m *MLP, x [][]float64, y []int) float64 {
	t.Helper()
	preds, err := m.PredictBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	var correct int
	for i, p := range preds {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// assertSameProbs requires two networks to score x bit-identically.
func assertSameProbs(t *testing.T, want, got *MLP, x [][]float64) {
	t.Helper()
	w, g := probs(t, want, x), probs(t, got, x)
	for i := range w.Data {
		if w.Data[i] != g.Data[i] {
			t.Fatalf("probability %d: %v vs %v", i, g.Data[i], w.Data[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Classes: 1, Hidden: 10, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Hidden: 0, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Hidden: 10, Epochs: 0, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Hidden: 10, Epochs: 1, BatchSize: 0, LearningRate: 0.1},
		{Classes: 2, Hidden: 10, Epochs: 1, BatchSize: 1, LearningRate: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSeparableBlobs(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {4, 4}, {0, 4}}, 30, 0.5, 1)
	m, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, m, x, y)
	if acc := accuracy(t, m, x, y); acc < 0.95 {
		t.Errorf("accuracy = %f", acc)
	}
}

func TestNonLinearXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 240; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	cfg := testConfig(2)
	cfg.Epochs = 200
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, m, x, y)
	if acc := accuracy(t, m, x, y); acc < 0.9 {
		t.Errorf("XOR accuracy = %f (MLP must beat linear models here)", acc)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	x, y := blobs([][]float64{{0}, {3}}, 15, 0.3, 3)
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, m, x, y)
	p := probs(t, m, [][]float64{{1.5}, {-2}, {7}})
	for i := 0; i < p.Rows; i++ {
		var sum float64
		for _, v := range p.Row(i) {
			if v < 0 || v > 1 {
				t.Errorf("probability %f out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d probabilities sum to %f", i, sum)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {3, 3}}, 20, 0.8, 4)
	run := func() *MLP {
		m, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		fit(t, m, x, y)
		return m
	}
	assertSameProbs(t, run(), run(), [][]float64{{1.5, 1.5}})
}

// TestRefitMatchesFresh pins the fit contract: refitting a used model is
// bit-identical to fitting a fresh one. A previous version silently
// warm-started when the input dimension matched — stale weights and stale
// Adam moments/step count leaked into the second fit.
func TestRefitMatchesFresh(t *testing.T) {
	x, y := blobs([][]float64{{0}, {3}}, 10, 0.3, 5)
	refit, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, refit, x, y)
	fit(t, refit, x, y)
	fresh, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, fresh, x, y)
	assertSameProbs(t, fresh, refit, x)
}

// TestRefitChangesDimension checks that a second fit with a different
// feature width reshapes the network instead of failing or mixing stale
// parameters.
func TestRefitChangesDimension(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	x1, y1 := blobs([][]float64{{0}, {3}}, 10, 0.3, 5)
	fit(t, m, x1, y1)
	x2, y2 := blobs([][]float64{{0, 0}, {3, 3}}, 10, 0.3, 6)
	fit(t, m, x2, y2)
	if _, err := m.PredictBatchSparse(csr(t, [][]float64{{1, 1}})); err != nil {
		t.Fatalf("predict after refit with new width: %v", err)
	}
	if _, err := m.PredictBatchSparse(csr(t, [][]float64{{1}})); err == nil {
		t.Error("old-width predict still accepted after refit")
	}
}

// TestDeterministicTrainingAcrossParallelism trains the same model under
// GOMAXPROCS 1 and 4 and requires bit-identical probabilities: the batched
// kernels may fan rows out across goroutines, but each output cell is one
// accumulator summed in a fixed order, so parallelism must not change a
// single bit. Under -race this also exercises the data-parallel epoch for
// unsynchronized access.
func TestDeterministicTrainingAcrossParallelism(t *testing.T) {
	// Wide enough that the affine kernels cross the parallel threshold.
	x, y := blobs([][]float64{make([]float64, 96), func() []float64 {
		c := make([]float64, 96)
		for i := range c {
			c[i] = 3
		}
		return c
	}()}, 24, 0.8, 7)
	cfg := testConfig(2)
	cfg.Hidden = 64
	cfg.Epochs = 6
	run := func(procs int) *MLP {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fit(t, m, x, y)
		return m
	}
	assertSameProbs(t, run(1), run(4), x[:1])
}

func TestFitPredictValidation(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictBatchSparse(csr(t, [][]float64{{1}})); err == nil {
		t.Error("predict before fit accepted")
	}
	if err := m.Fit([][]float64{{1}, {2}}, []int{0, 5}); err == nil {
		t.Error("bad label accepted")
	}
	if err := m.Fit([][]float64{{1}, {2, 3}}, []int{0, 1}); err == nil {
		t.Error("ragged rows accepted")
	}
	if err := m.FitSparse(csr(t, [][]float64{{1}, {2}}), []int{0}); err == nil {
		t.Error("label count mismatch accepted")
	}
	x, y := blobs([][]float64{{0}, {3}}, 5, 0.3, 6)
	fit(t, m, x, y)
	if _, err := m.PredictBatchSparse(csr(t, [][]float64{{1, 2}})); err == nil {
		t.Error("wrong-dim predict accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := blobs([][]float64{{0, 1}, {4, 5}}, 15, 0.4, 31)
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, m, x, y)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameProbs(t, m, back, x)
}

func TestSaveUnfittedRejected(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Error("unfitted model saved")
	}
}
