package svm

import (
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// TestPredictBatchMatchesPredict pins the batch contract single-sample
// prediction relies on: every row scored inside one batch must equal the
// same row scored as a batch of one, scores bit for bit.
func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {6, 0}, {0, 6}}, 25, 0.8, 7)
	clf, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)

	batch, err := clf.PredictBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	all := scores(t, clf, x)
	for i := range x {
		one, err := clf.PredictBatchSparse(csr(t, x[i:i+1]))
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != one[0] {
			t.Errorf("sample %d: batch %d, alone %d", i, batch[i], one[0])
		}
		for k, v := range scores(t, clf, x[i:i+1]).Row(0) {
			if all.At(i, k) != v {
				t.Errorf("sample %d score %d: batch %g, alone %g", i, k, all.At(i, k), v)
			}
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.ScoresSparse(linalg.SparseFromDense(linalg.NewMatrix(1, 1))); err == nil {
		t.Error("scoring before fit accepted")
	}
	x, y := gaussianBlobs([][]float64{{0, 0}, {5, 5}}, 8, 0.3, 8)
	fit(t, clf, x, y)
	if _, err := clf.ScoresSparse(linalg.SparseFromDense(linalg.NewMatrix(2, 5))); err == nil {
		t.Error("wrong-dim scoring accepted")
	}
}
