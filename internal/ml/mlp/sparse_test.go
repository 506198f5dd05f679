package mlp

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

// forward is the dense per-sample reference the batch kernels are checked
// against: h = ReLU(W1·x + b1), p = softmax(W2·h + b2), one unit at a time.
func forward(m *MLP, x []float64) []float64 {
	h, d, k := m.cfg.Hidden, m.dim, m.cfg.Classes
	hidden := make([]float64, h)
	for j := range hidden {
		z := m.params[m.b1+j] + linalg.Dot(m.params[m.w1+j*d:m.w1+(j+1)*d], x)
		if z < 0 {
			z = 0
		}
		hidden[j] = z
	}
	logits := make([]float64, k)
	for c := range logits {
		logits[c] = m.params[m.b2+c] + linalg.Dot(m.params[m.w2+c*h:m.w2+(c+1)*h], hidden)
	}
	probs := make([]float64, k)
	linalg.Softmax(logits, probs)
	return probs
}

// TestSparseMatchesDense pins the batch forward pass against the dense
// per-sample reference: the sparse first layer must leave every
// probability bit-identical, and PredictBatchSparse must be its argmax.
func TestSparseMatchesDense(t *testing.T) {
	raw, y := blobs([][]float64{{0, 0}, {4, 0}, {0, 4}}, 20, 0.5, 21)
	x := padSparse(raw, 10)
	cfg := DefaultConfig(3)
	cfg.Epochs = 8
	clf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, clf, x, y)

	sparse := probs(t, clf, x)
	preds, err := clf.PredictBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		want := forward(clf, row)
		for c, p := range want {
			if got := sparse.At(i, c); got != p {
				t.Fatalf("sample %d class %d: sparse %v, dense %v", i, c, got, p)
			}
		}
		if preds[i] != linalg.ArgMax(want) {
			t.Fatalf("sample %d: predicted %d, dense argmax %d", i, preds[i], linalg.ArgMax(want))
		}
	}
}

// TestFitSparseMatchesFit pins the training entry points against each
// other: Fit on dense rows, FitSparse on their CSR form, and FitSparse on
// the same batch with every zero stored (the dense layout) must train
// bit-identical networks — the sparse kernels skip only exact-zero terms,
// and every gradient cell accumulates in ascending sample order.
func TestFitSparseMatchesFit(t *testing.T) {
	raw, y := blobs([][]float64{{0, 0}, {4, 0}, {0, 4}}, 20, 0.5, 23)
	x := padSparse(raw, 10)
	cfg := DefaultConfig(3)
	cfg.Epochs = 8

	dense, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.FitSparse(storeAll(x), y); err != nil {
		t.Fatal(err)
	}
	rows, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sparse, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, sparse, x, y)

	for i, want := range dense.params {
		if rows.params[i] != want || sparse.params[i] != want {
			t.Fatalf("parameter %d: dense layout %v, Fit %v, FitSparse %v", i, want, rows.params[i], sparse.params[i])
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
	x, y := blobs([][]float64{{0, 0}, {5, 5}}, 8, 0.3, 22)
	cfg := DefaultConfig(2)
	cfg.Epochs = 2
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
