package linalg

import (
	"math/rand"
	"testing"
)

// randomSparseDense builds a dense matrix with roughly the given fraction
// of nonzeros (mixed signs), mirroring bag-of-words feature batches.
func randomSparseDense(rows, cols int, density float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestSparseDenseRoundTrip(t *testing.T) {
	dense := randomSparseDense(17, 53, 0.05, 1)
	sp := SparseFromDense(dense)
	if sp.Rows != dense.Rows || sp.Cols != dense.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", sp.Rows, sp.Cols, dense.Rows, dense.Cols)
	}
	var wantNNZ int
	for _, v := range dense.Data {
		if v != 0 {
			wantNNZ++
		}
	}
	if sp.NNZ() != wantNNZ {
		t.Fatalf("nnz %d, want %d", sp.NNZ(), wantNNZ)
	}
	for r := 0; r < sp.Rows; r++ {
		cols, _ := sp.RowNZ(r)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("row %d columns not strictly ascending: %v", r, cols)
			}
		}
	}
	back := sp.ToDense()
	for i := range dense.Data {
		if dense.Data[i] != back.Data[i] {
			t.Fatalf("element %d: %v round-tripped to %v", i, dense.Data[i], back.Data[i])
		}
	}
}

func TestSparseDotMatchesDot(t *testing.T) {
	dense := randomSparseDense(8, 200, 0.1, 2)
	sp := SparseFromDense(dense)
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, dense.Cols)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for r := 0; r < sp.Rows; r++ {
		cols, vals := sp.RowNZ(r)
		if got, want := SparseDot(cols, vals, w), Dot(dense.Row(r), w); got != want {
			t.Fatalf("row %d: SparseDot %v, Dot %v", r, got, want)
		}
	}
}

func TestSparseAffineTMatchesAffineT(t *testing.T) {
	// Large enough that parallelRows actually fans out.
	a := randomSparseDense(300, 500, 0.05, 4)
	sp := SparseFromDense(a)
	w := randomSparseDense(40, 500, 1, 5) // dense weights
	rng := rand.New(rand.NewSource(6))
	bias := make([]float64, w.Rows)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	want := AffineT(a, w, bias)
	got := SparseAffineT(sp, w, bias)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d: dense %v, sparse %v", i, want.Data[i], got.Data[i])
		}
	}
}

func TestGatherRows(t *testing.T) {
	dense := randomSparseDense(10, 30, 0.2, 7)
	sp := SparseFromDense(dense)
	idx := []int{7, 0, 7, 3}
	got := sp.GatherRows(idx).ToDense()
	if got.Rows != len(idx) {
		t.Fatalf("%d rows, want %d", got.Rows, len(idx))
	}
	for k, i := range idx {
		for j, v := range dense.Row(i) {
			if got.Row(k)[j] != v {
				t.Fatalf("gathered row %d (source %d) col %d: %v, want %v", k, i, j, got.Row(k)[j], v)
			}
		}
	}
	empty := sp.GatherRows(nil)
	if empty.Rows != 0 || empty.NNZ() != 0 {
		t.Fatalf("empty gather: %d rows, %d nnz", empty.Rows, empty.NNZ())
	}
}

func TestScatterClearRow(t *testing.T) {
	dense := randomSparseDense(6, 40, 0.3, 8)
	sp := SparseFromDense(dense)
	scratch := make([]float64, sp.Cols)
	for r := 0; r < sp.Rows; r++ {
		sp.ScatterRow(r, scratch)
		for j, v := range dense.Row(r) {
			if scratch[j] != v {
				t.Fatalf("row %d col %d: scattered %v, want %v", r, j, scratch[j], v)
			}
		}
		sp.ClearRow(r, scratch)
	}
	for j, v := range scratch {
		if v != 0 {
			t.Fatalf("scratch[%d] = %v after ClearRow cycle", j, v)
		}
	}
}

func TestAppendRowBuildsCSR(t *testing.T) {
	s := NewSparseMatrix(3, 4, 4)
	s.ColIdx = append(s.ColIdx, 1, 3)
	s.Val = append(s.Val, 2, 4)
	s.AppendRow()
	s.AppendRow() // empty row
	s.ColIdx = append(s.ColIdx, 0)
	s.Val = append(s.Val, 5)
	s.AppendRow()
	want := [][]float64{{0, 2, 0, 4}, {0, 0, 0, 0}, {5, 0, 0, 0}}
	d := s.ToDense()
	for i, row := range want {
		for j, v := range row {
			if d.Row(i)[j] != v {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, d.Row(i)[j], v)
			}
		}
	}
}
