package mlp

import (
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// TestPredictBatchMatchesPredict pins the batch contract single-sample
// prediction relies on: every row scored inside one batch must equal the
// same row scored as a batch of one, probabilities bit for bit.
func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {4, 0}, {0, 4}}, 20, 0.6, 7)
	m, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, m, x, y)

	batch, err := m.PredictBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	all := probs(t, m, x)
	for i := range x {
		one, err := m.PredictBatchSparse(csr(t, x[i:i+1]))
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != one[0] {
			t.Errorf("sample %d: batch %d, alone %d", i, batch[i], one[0])
		}
		for k, p := range probs(t, m, x[i:i+1]).Row(0) {
			if all.At(i, k) != p {
				t.Errorf("sample %d prob %d: batch %g, alone %g", i, k, all.At(i, k), p)
			}
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ScoresSparse(linalg.SparseFromDense(linalg.NewMatrix(1, 1))); err == nil {
		t.Error("scoring before fit accepted")
	}
	x, y := blobs([][]float64{{0}, {3}}, 6, 0.3, 8)
	fit(t, m, x, y)
	if _, err := m.ScoresSparse(linalg.SparseFromDense(linalg.NewMatrix(2, 4))); err == nil {
		t.Error("wrong-dim scoring accepted")
	}
}
