package forest

import (
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// padSparse embeds each sample in a wider feature space with zero columns,
// so the CSR form actually skips entries.
func padSparse(x [][]float64, dim int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		wide := make([]float64, dim)
		for j, v := range row {
			wide[j*3] = v
		}
		out[i] = wide
	}
	return out
}

// TestSparseMatchesDense pins the sparse vote against walking every tree
// over the dense rows: voting over scatter/clear scratch rows must
// reproduce the dense tallies exactly, and the prediction their argmax
// (lowest class index on ties).
func TestSparseMatchesDense(t *testing.T) {
	raw, y := blobs([][]float64{{0, 0}, {4, 0}, {0, 4}}, 20, 0.6, 31)
	x := padSparse(raw, 10)
	clf, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)

	shares := voteShares(t, clf, x)
	preds := predict(t, clf, x)
	for i, row := range x {
		votes := make([]float64, clf.cfg.Classes)
		for _, tree := range clf.trees {
			votes[classify(tree, row)]++
		}
		for c, v := range votes {
			if want := v / float64(len(clf.trees)); shares.At(i, c) != want {
				t.Fatalf("sample %d class %d: sparse share %v, dense %v", i, c, shares.At(i, c), want)
			}
		}
		if preds[i] != linalg.ArgMax(votes) {
			t.Fatalf("sample %d: sparse class %d, dense %d", i, preds[i], linalg.ArgMax(votes))
		}
	}
}

func TestSparsePredictValidation(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	one := linalg.SparseFromDense(linalg.NewMatrix(1, 2))
	if _, err := clf.PredictBatchSparse(one); err == nil {
		t.Error("sparse predict before fit accepted")
	}
	x, y := blobs([][]float64{{0, 0}, {5, 5}}, 8, 0.3, 32)
	cfg := DefaultConfig(2)
	cfg.Trees = 5
	clf, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)
	wrong := linalg.SparseFromDense(linalg.NewMatrix(2, 5))
	if _, err := clf.PredictBatchSparse(wrong); err == nil {
		t.Error("wrong-dim sparse batch accepted")
	}
}
