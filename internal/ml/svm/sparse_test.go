package svm

import (
	"math"
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

// storeAll converts dense rows to a CSR matrix that stores every element,
// zeros included: the dense layout, walked by the sparse kernels.
func storeAll(x [][]float64) *linalg.SparseMatrix {
	s := linalg.NewSparseMatrix(len(x), len(x[0]), len(x)*len(x[0]))
	for _, row := range x {
		for j, v := range row {
			s.ColIdx = append(s.ColIdx, int32(j))
			s.Val = append(s.Val, v)
		}
		s.AppendRow()
	}
	return s
}

// TestSparseMatchesDense pins the scoring kernel against a dense
// evaluation of the same rows: ScoresSparse must equal bias + w·x̂ with x̂
// the L2-normalized dense row, bit for bit, and PredictBatchSparse its
// argmax.
func TestSparseMatchesDense(t *testing.T) {
	raw, y := gaussianBlobs([][]float64{{0, 0}, {6, 0}, {0, 6}}, 25, 0.8, 11)
	x := padSparse(raw, 12)
	clf, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)

	sparse := scores(t, clf, x)
	preds, err := clf.PredictBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		unit := make([]float64, len(row))
		n := math.Sqrt(linalg.Dot(row, row))
		for j, v := range row {
			unit[j] = v / n
		}
		want := make([]float64, clf.cfg.Classes)
		for c := range want {
			want[c] = clf.b[c] + linalg.Dot(clf.w.Row(c), unit)
			if got := sparse.At(i, c); got != want[c] {
				t.Fatalf("sample %d class %d: sparse %v, dense %v", i, c, got, want[c])
			}
		}
		if preds[i] != linalg.ArgMax(want) {
			t.Fatalf("sample %d: predicted %d, dense argmax %d", i, preds[i], linalg.ArgMax(want))
		}
	}
}

// TestFitSparseMatchesFit pins sparse training against dense Pegasos:
// FitSparse over a CSR batch must produce the hyperplanes it produces over
// the same batch with every zero stored — the dense computation, where
// each skipped term is an exact-zero product.
func TestFitSparseMatchesFit(t *testing.T) {
	raw, y := gaussianBlobs([][]float64{{0, 0}, {6, 0}, {0, 6}}, 25, 0.8, 13)
	x := padSparse(raw, 12)

	dense, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.FitSparse(storeAll(x), y); err != nil {
		t.Fatal(err)
	}
	sparse, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, sparse, x, y)

	for i := range dense.w.Data {
		if dense.w.Data[i] != sparse.w.Data[i] {
			t.Fatalf("weight %d: dense-trained %v, sparse-trained %v", i, dense.w.Data[i], sparse.w.Data[i])
		}
	}
	for c := range dense.b {
		if dense.b[c] != sparse.b[c] {
			t.Fatalf("intercept %d: dense-trained %v, sparse-trained %v", c, dense.b[c], sparse.b[c])
		}
	}
}

// TestRefitMatchesFresh pins the fit contract shared by the classifiers:
// refitting a used model is bit-identical to fitting a fresh one (no state
// survives across fits).
func TestRefitMatchesFresh(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {6, 6}}, 20, 0.5, 14)
	refit, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, refit, x, y)
	fit(t, refit, x, y)
	fresh, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, fresh, x, y)
	want, got := scores(t, fresh, x), scores(t, refit, x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("score %d: refit %v, fresh %v", i, got.Data[i], want.Data[i])
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
	x, y := gaussianBlobs([][]float64{{0, 0}, {5, 5}}, 8, 0.3, 12)
	fit(t, clf, x, y)
	wrong := linalg.SparseFromDense(linalg.NewMatrix(2, 5))
	if _, err := clf.PredictBatchSparse(wrong); err == nil {
		t.Error("wrong-dim sparse batch accepted")
	}
}
