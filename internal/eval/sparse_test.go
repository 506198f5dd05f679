package eval

import (
	"math/rand"
	"testing"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/ml/svm"
)

// csr converts dense rows to a CSR feature matrix.
func csr(t *testing.T, x [][]float64) *linalg.SparseMatrix {
	t.Helper()
	m, err := linalg.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	return linalg.SparseFromDense(m)
}

// TestCrossValidateSparseMatchesDense pins that cross-validation never
// depends on which zeros a CSR matrix stores: the same rows with every
// zero stored (the dense layout) give exactly the metrics of the
// compacted form — folds, seeds, and scores all line up bit for bit.
func TestCrossValidateSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	// Mostly-zero rows with class-indicative nonzero positions, the shape
	// of a bag-of-words batch.
	for c := 0; c < 3; c++ {
		for i := 0; i < 20; i++ {
			row := make([]float64, 30)
			row[c*7] = 1 + rng.Float64()
			row[c*7+2] = rng.Float64()
			row[rng.Intn(30)] += 0.1
			x = append(x, row)
			y = append(y, c)
		}
	}
	dense := linalg.NewSparseMatrix(len(x), len(x[0]), len(x)*len(x[0]))
	for _, row := range x {
		for j, v := range row {
			dense.ColIdx = append(dense.ColIdx, int32(j))
			dense.Val = append(dense.Val, v)
		}
		dense.AppendRow()
	}
	factory := func() (ml.Classifier, error) { return svm.New(svm.DefaultConfig(3)) }

	want, err := CrossValidateSparse(dense, y, 3, 5, 7, factory)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossValidateSparse(csr(t, x), y, 3, 5, 7, factory)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("compact CSR metrics %+v, dense layout %+v", got, want)
	}
}
