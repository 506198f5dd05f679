package linalg

import "fmt"

// SparseMatrix is a CSR (compressed sparse row) matrix: row i's nonzeros
// are ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], with
// column indices strictly ascending within each row. It is the substrate
// for bag-of-words feature batches, which are >95% zeros at the paper's
// 4096-feature vocabulary.
//
// Every kernel below accumulates along ascending column order — the same
// order the dense kernels walk — so sparse and dense scores agree bit for
// bit (a skipped zero term contributes exactly +0.0 to a dense sum).
type SparseMatrix struct {
	Rows int
	Cols int
	// RowPtr has Rows+1 entries; row i spans [RowPtr[i], RowPtr[i+1]).
	RowPtr []int
	// ColIdx holds the column of every nonzero, ascending within a row.
	ColIdx []int32
	// Val holds the nonzero values.
	Val []float64
}

// NewSparseMatrix allocates an empty CSR shell with capacity hints.
func NewSparseMatrix(rows, cols, nnzHint int) *SparseMatrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid sparse shape %dx%d", rows, cols))
	}
	return &SparseMatrix{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, 1, rows+1),
		ColIdx: make([]int32, 0, nnzHint),
		Val:    make([]float64, 0, nnzHint),
	}
}

// NNZ returns the stored nonzero count.
func (s *SparseMatrix) NNZ() int { return len(s.Val) }

// RowNZ returns row r's column indices and values as shared views.
func (s *SparseMatrix) RowNZ(r int) ([]int32, []float64) {
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	return s.ColIdx[lo:hi], s.Val[lo:hi]
}

// AppendRow closes out the next row, whose nonzeros (ascending columns)
// were appended to ColIdx/Val by the caller. It records the row boundary.
func (s *SparseMatrix) AppendRow() {
	s.RowPtr = append(s.RowPtr, len(s.Val))
}

// SparseFromDense converts a dense matrix to CSR, keeping every nonzero
// element (including negative values; only exact zeros are dropped).
func SparseFromDense(m *Matrix) *SparseMatrix {
	var nnz int
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	s := NewSparseMatrix(m.Rows, m.Cols, nnz)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				s.ColIdx = append(s.ColIdx, int32(j))
				s.Val = append(s.Val, v)
			}
		}
		s.AppendRow()
	}
	return s
}

// ToDense scatters the CSR matrix into a freshly allocated dense matrix.
func (s *SparseMatrix) ToDense() *Matrix {
	m := NewMatrix(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		row := m.Row(i)
		cols, vals := s.RowNZ(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return m
}

// GatherRows returns a new CSR matrix holding the given rows of s, in idx
// order — the fold-gather operation of cross-validation.
func (s *SparseMatrix) GatherRows(idx []int) *SparseMatrix {
	var nnz int
	for _, i := range idx {
		nnz += s.RowPtr[i+1] - s.RowPtr[i]
	}
	out := NewSparseMatrix(max(len(idx), 1), s.Cols, nnz)
	out.Rows = len(idx)
	for _, i := range idx {
		cols, vals := s.RowNZ(i)
		out.ColIdx = append(out.ColIdx, cols...)
		out.Val = append(out.Val, vals...)
		out.AppendRow()
	}
	return out
}

// GatherRowsInto is GatherRows reusing dst's backing slices — the
// per-minibatch gather of sparse training loops, allocation-free once dst
// has grown to the largest batch.
func (s *SparseMatrix) GatherRowsInto(idx []int, dst *SparseMatrix) {
	var nnz int
	for _, i := range idx {
		nnz += s.RowPtr[i+1] - s.RowPtr[i]
	}
	dst.Cols = s.Cols
	dst.Rows = len(idx)
	dst.RowPtr = append(dst.RowPtr[:0], 0)
	dst.ColIdx = dst.ColIdx[:0]
	if cap(dst.Val) < nnz {
		dst.ColIdx = make([]int32, 0, nnz)
		dst.Val = make([]float64, 0, nnz)
	}
	dst.Val = dst.Val[:0]
	for _, i := range idx {
		cols, vals := s.RowNZ(i)
		dst.ColIdx = append(dst.ColIdx, cols...)
		dst.Val = append(dst.Val, vals...)
		dst.AppendRow()
	}
}

// ScatterRow writes row r into dst, which must be zeroed (pair with
// ClearRow to reuse dst across rows without a full wipe).
func (s *SparseMatrix) ScatterRow(r int, dst []float64) {
	cols, vals := s.RowNZ(r)
	for k, c := range cols {
		dst[c] = vals[k]
	}
}

// ClearRow re-zeroes exactly the positions ScatterRow(r) wrote.
func (s *SparseMatrix) ClearRow(r int, dst []float64) {
	cols, _ := s.RowNZ(r)
	for _, c := range cols {
		dst[c] = 0
	}
}

// SparseDot returns Σ vals[k]·w[cols[k]], accumulating in ascending column
// order — bitwise what a dense ascending dot over the scattered row yields.
func SparseDot(cols []int32, vals []float64, w []float64) float64 {
	var sum float64
	for k, c := range cols {
		sum += vals[k] * w[c]
	}
	return sum
}

// SparseAxpy computes w[cols[k]] += s·vals[k] for every stored nonzero —
// the sparse Axpy of stochastic-gradient hinge steps. Identical in value
// to a dense Axpy on the scattered row: the skipped terms are exact-zero
// products, which add as identity on accumulators that are never -0.0.
func SparseAxpy(w []float64, cols []int32, vals []float64, s float64) {
	for k, c := range cols {
		w[c] += s * vals[k]
	}
}

// SparseAffineT returns C = A·Wᵀ + bias for a CSR A: row i of C is
// W·a_i + bias, computed as bias[j] + SparseDot(row, w_j) — the sparse
// analogue of AffineT, with identical per-cell accumulation order, so it
// reproduces the dense kernel bit for bit on the same logical matrix. Rows
// fan out over GOMAXPROCS goroutines when the work is large enough.
func SparseAffineT(a *SparseMatrix, w *Matrix, bias []float64) *Matrix {
	c := NewMatrix(a.Rows, w.Rows)
	SparseAffineTInto(a, w, bias, c)
	return c
}

// SparseAffineTInto is SparseAffineT writing into a caller-owned c. Like
// the dense AffineTInto it tiles sample rows with the weight loop
// outermost: a tile's column indices and values stay cache-resident while
// each W row is gathered against once per tile rather than once per
// sample. Per-cell accumulation (bias[j] + ascending-column SparseDot) is
// unchanged, so the tiled order produces identical bits.
func SparseAffineTInto(a *SparseMatrix, w *Matrix, bias []float64, c *Matrix) {
	if a.Cols != w.Cols {
		panic(fmt.Sprintf("linalg: sparse affineT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if len(bias) != w.Rows {
		panic(fmt.Sprintf("linalg: sparse affineT bias length %d, want %d", len(bias), w.Rows))
	}
	if c.Rows != a.Rows || c.Cols != w.Rows {
		panic(fmt.Sprintf("linalg: sparse affineT output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, w.Rows))
	}
	avgNNZ := 0
	if a.Rows > 0 {
		avgNNZ = a.NNZ() / a.Rows
	}
	parallelRows(a.Rows, a.Rows*avgNNZ*w.Rows, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += affineTileRows {
			i1 := i0 + affineTileRows
			if i1 > hi {
				i1 = hi
			}
			for j := 0; j < w.Rows; j++ {
				wRow := w.Row(j)
				bj := bias[j]
				for i := i0; i < i1; i++ {
					cols, vals := a.RowNZ(i)
					c.Row(i)[j] = bj + SparseDot(cols, vals, wRow)
				}
			}
		}
	})
}
