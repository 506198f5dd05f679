package forest

import (
	"math"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// TestPredictBatchMatchesPredict pins the batch contract single-sample
// prediction relies on: the parallel per-row vote must give every row the
// class it gets as a batch of one.
func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {5, 0}, {0, 5}}, 20, 1.2, 7)
	f, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)

	batch := predict(t, f, x)
	for i := range x {
		if one := predict(t, f, x[i:i+1]); batch[i] != one[0] {
			t.Errorf("sample %d: batch %d, alone %d", i, batch[i], one[0])
		}
	}
}

// TestScoresAreVoteFractions checks each row of vote fractions sums to 1 and
// that the argmax matches PredictBatchSparse.
func TestScoresAreVoteFractions(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {4, 4}}, 15, 0.8, 9)
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)
	scores := voteShares(t, f, x)
	preds := predict(t, f, x)
	for i := 0; i < scores.Rows; i++ {
		var sum float64
		for _, v := range scores.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("vote fraction %g out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d fractions sum to %g", i, sum)
		}
		if linalg.ArgMax(scores.Row(i)) != preds[i] {
			t.Errorf("row %d: scores argmax %d, batch %d", i, linalg.ArgMax(scores.Row(i)), preds[i])
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PredictBatchSparse(linalg.SparseFromDense(linalg.NewMatrix(1, 1))); err == nil {
		t.Error("predicting before fit accepted")
	}
}
