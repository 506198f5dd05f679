package svm

import (
	"bytes"
	"math/rand"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// gaussianBlobs generates `perClass` points around each of the given
// centers with the given spread.
func gaussianBlobs(centers [][]float64, perClass int, spread float64, seed int64) (x [][]float64, y []int) {
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

// csr converts dense rows to the CSR batch the classifier consumes.
func csr(t testing.TB, x [][]float64) *linalg.SparseMatrix {
	t.Helper()
	m, err := linalg.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	return linalg.SparseFromDense(m)
}

// fit trains clf on dense rows through FitSparse.
func fit(t testing.TB, clf *SVM, x [][]float64, y []int) {
	t.Helper()
	if err := clf.FitSparse(csr(t, x), y); err != nil {
		t.Fatal(err)
	}
}

// scores returns the decision values of every row of x.
func scores(t testing.TB, clf *SVM, x [][]float64) *linalg.Matrix {
	t.Helper()
	s, err := clf.ScoresSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func accuracy(t *testing.T, clf *SVM, x [][]float64, y []int) float64 {
	t.Helper()
	preds, err := clf.PredictBatchSparse(csr(t, x))
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

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Classes: 1, Lambda: 1, Epochs: 1}); err == nil {
		t.Error("1 class accepted")
	}
	if _, err := New(Config{Classes: 2, Lambda: 0, Epochs: 1}); err == nil {
		t.Error("lambda 0 accepted")
	}
	if _, err := New(Config{Classes: 2, Lambda: 1, Epochs: 0}); err == nil {
		t.Error("0 epochs accepted")
	}
}

// blobConfig disables L2 normalization: raw geometric blobs (unlike BoW
// vectors) lose their separability when projected onto the unit sphere.
func blobConfig(classes int) Config {
	cfg := DefaultConfig(classes)
	cfg.NormalizeL2 = false
	cfg.Lambda = 1e-4
	return cfg
}

func TestBinarySeparable(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {6, 6}}, 40, 0.5, 1)
	clf, err := New(blobConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)
	if acc := accuracy(t, clf, x, y); acc < 0.98 {
		t.Errorf("separable accuracy = %f, want >= 0.98", acc)
	}
}

func TestMultiClassSeparable(t *testing.T) {
	centers := [][]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}}
	x, y := gaussianBlobs(centers, 30, 0.6, 2)
	clf, err := New(blobConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)
	if acc := accuracy(t, clf, x, y); acc < 0.95 {
		t.Errorf("4-class accuracy = %f, want >= 0.95", acc)
	}
}

func TestHighDimensionalSparse(t *testing.T) {
	// BoW-like features: class 0 lights features 0-4, class 1 features 5-9.
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		v := make([]float64, 50)
		class := i % 2
		for j := 0; j < 5; j++ {
			v[class*5+rng.Intn(5)] += 0.2
		}
		x = append(x, v)
		y = append(y, class)
	}
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)
	if acc := accuracy(t, clf, x, y); acc < 0.95 {
		t.Errorf("sparse accuracy = %f", acc)
	}
}

func TestFitValidation(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.FitSparse(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := clf.FitSparse(csr(t, [][]float64{{1}}), []int{3}); err == nil {
		t.Error("out-of-range label accepted")
	}
	if err := clf.FitSparse(csr(t, [][]float64{{1}, {2}}), []int{0}); err == nil {
		t.Error("label count mismatch accepted")
	}
}

func TestPredictValidation(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.PredictBatchSparse(csr(t, [][]float64{{1}})); err == nil {
		t.Error("predict before fit accepted")
	}
	x, y := gaussianBlobs([][]float64{{0}, {5}}, 10, 0.1, 4)
	fit(t, clf, x, y)
	if _, err := clf.PredictBatchSparse(csr(t, [][]float64{{1, 2, 3}})); err == nil {
		t.Error("wrong-dim predict accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {4, 4}}, 20, 1.0, 5)
	a, err := New(blobConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(blobConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, a, x, y)
	fit(t, b, x, y)
	for i, v := range a.w.Data {
		if v != b.w.Data[i] {
			t.Fatal("same-seed training diverges (parallelism nondeterminism?)")
		}
	}
}

func TestDecisionValuesShape(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {4, 4}, {0, 4}}, 15, 0.5, 6)
	clf, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)
	s := scores(t, clf, x)
	if s.Rows != len(x) || s.Cols != 3 {
		t.Errorf("scores shape %dx%d, want %dx3", s.Rows, s.Cols, len(x))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{1, 5}, {5, 1}, {5, 5}}, 12, 0.4, 41)
	clf, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)

	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, got := scores(t, clf, x), scores(t, back, x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("score %d: %v after load, %v before", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSaveUnfittedRejected(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err == nil {
		t.Error("unfitted model saved")
	}
}
