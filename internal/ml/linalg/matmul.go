package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// Batch matrix kernels. Every product below is blocked over the inner
// dimension for cache locality and fans rows out over GOMAXPROCS
// goroutines once the work is large enough to amortize the scheduling;
// small products run serially. The inner accumulation always walks the
// shared dimension in ascending order, so parallel results are
// bit-identical to the serial path regardless of worker count.

const (
	// parallelFlops is the approximate multiply-add count below which a
	// product runs serially; goroutine fan-out costs more than it saves
	// under this size.
	parallelFlops = 64 * 1024
	// blockK is the inner-dimension tile: one A-row tile plus the touched
	// B rows stay resident in L1/L2 while a C row accumulates.
	blockK = 256
	// affineTileRows is the A-row tile of the affine kernels: within a
	// tile the weight loop runs outermost, so each W row is fetched once
	// per tile and dotted against every tile row from cache, instead of W
	// streaming through memory once per sample. Sixteen rows of a
	// few-thousand-wide A stay L2-resident.
	affineTileRows = 16
)

// FromRows builds a matrix whose rows copy the given slices. All rows must
// share one length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("linalg: no rows")
	}
	cols := len(rows[0])
	if cols == 0 {
		return nil, fmt.Errorf("linalg: zero-width rows")
	}
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// RowSlices returns every row as a shared view; mutating a slice mutates
// the matrix.
func (m *Matrix) RowSlices() [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// parallelRows partitions [0, rows) into contiguous chunks and runs fn on
// each chunk concurrently. flops gates the fan-out: below parallelFlops
// everything runs on the calling goroutine.
func parallelRows(rows, flops int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || flops < parallelFlops {
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMulT returns C = A·Bᵀ. Shapes: (n×k)·(m×k)ᵀ → n×m. Both operands are
// traversed along rows, the cache-ideal layout for row-major storage.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Rows)
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			aRow := a.Row(i)
			cRow := c.Row(i)
			for j := 0; j < b.Rows; j++ {
				cRow[j] = Dot(aRow, b.Row(j))
			}
		}
	})
	return c
}

// AffineT returns C = A·Wᵀ + bias, the batched affine layer: row i of C is
// W·a_i + bias. len(bias) must equal w.Rows. Each cell computes the full
// dot product first and adds the bias with one final add — exactly the
// serial per-sample form bias + Dot(w, x) — so batch and single-sample
// forwards agree bit for bit.
func AffineT(a, w *Matrix, bias []float64) *Matrix {
	c := NewMatrix(a.Rows, w.Rows)
	AffineTInto(a, w, bias, c)
	return c
}

// AffineTInto is AffineT writing into a caller-owned c (shape a.Rows×w.Rows),
// the allocation-free form training loops call once per minibatch.
//
// The loop nest tiles sample rows and puts the weight loop outermost
// inside each tile: W streams through memory once per affineTileRows
// samples rather than once per sample, which is what makes the batched
// trainer cheaper than a per-sample loop when W outgrows the cache. Every
// output cell is still the independent bias + Dot(w_j, a_i), so cell
// iteration order is free and the tiled order is bit-identical to the
// row-major one.
func AffineTInto(a, w *Matrix, bias []float64, c *Matrix) {
	if a.Cols != w.Cols {
		panic(fmt.Sprintf("linalg: affineT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if len(bias) != w.Rows {
		panic(fmt.Sprintf("linalg: affineT bias length %d, want %d", len(bias), w.Rows))
	}
	if c.Rows != a.Rows || c.Cols != w.Rows {
		panic(fmt.Sprintf("linalg: affineT output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, w.Rows))
	}
	parallelRows(a.Rows, a.Rows*a.Cols*w.Rows, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += affineTileRows {
			i1 := i0 + affineTileRows
			if i1 > hi {
				i1 = hi
			}
			for j := 0; j < w.Rows; j++ {
				wRow := w.Row(j)
				bj := bias[j]
				// Four samples dot against the weight row at once. The four
				// accumulators are independent dependency chains, so the
				// floating-point add latency that serializes a lone Dot is
				// hidden — and each chain still sums w[k]·a[k] in ascending
				// k, so every cell remains bit-identical to bias + Dot.
				i := i0
				for ; i+4 <= i1; i += 4 {
					a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
					var s0, s1, s2, s3 float64
					for k, wk := range wRow {
						s0 += wk * a0[k]
						s1 += wk * a1[k]
						s2 += wk * a2[k]
						s3 += wk * a3[k]
					}
					c.Row(i)[j] = bj + s0
					c.Row(i + 1)[j] = bj + s1
					c.Row(i + 2)[j] = bj + s2
					c.Row(i + 3)[j] = bj + s3
				}
				for ; i < i1; i++ {
					c.Row(i)[j] = bj + Dot(wRow, a.Row(i))
				}
			}
		}
	})
}

// MatMulInto is MatMul writing into a caller-owned c (shape a.Rows×b.Cols).
// c is overwritten, not accumulated into.
func MatMulInto(a, b, c *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: matmul output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			aRow := a.Row(i)
			cRow := c.Row(i)
			axpyInit(cRow, b.Row(0), aRow[0])
			for k := 1; k < a.Cols; k++ {
				Axpy(cRow, b.Row(k), aRow[k])
			}
		}
	})
}

// MatTMulInto computes C = Aᵀ·B into a caller-owned c. Shapes:
// (n×k)ᵀ·(n×m) → k×m. This is the gradient kernel of the batched backward
// pass: with A the per-sample output deltas and B the per-sample
// activations, cell (j, t) accumulates Σ_i a[i][j]·b[i][t] over the batch
// in ascending sample order — exactly the order a per-sample training loop
// adds gradient contributions — so whole-batch gradients are bit-identical
// to the per-sample path. Fan-out is across output rows (each cell is owned
// by one goroutine), so any worker count reproduces the serial bits.
func MatTMulInto(a, b, c *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: mattmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: mattmul output %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	parallelRows(c.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			cRow := c.Row(j)
			axpyInit(cRow, b.Row(0), a.At(0, j))
			for i := 1; i < a.Rows; i++ {
				Axpy(cRow, b.Row(i), a.At(i, j))
			}
		}
	})
}

// axpyInit writes dst = s·src + 0 element-wise: the value a zeroed
// accumulator holds after its first s·src add. The explicit +0 folds a
// -0.0 product to the +0.0 that 0 + (-0.0) yields, so overwrite-init is
// bit-identical to Zero-then-Axpy without the extra clearing pass.
func axpyInit(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] = s*src[i] + 0
	}
}

// ColSumsInto writes the per-column sums of a into dst (len a.Cols),
// accumulating rows in ascending order — the bias-gradient reduction of the
// batched backward pass, bit-identical to per-sample accumulation.
func ColSumsInto(a *Matrix, dst []float64) {
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("linalg: colsums length %d, want %d", len(dst), a.Cols))
	}
	axpyInit(dst, a.Row(0), 1)
	for i := 1; i < a.Rows; i++ {
		Axpy(dst, a.Row(i), 1)
	}
}

// ZeroWhereNonPos zeroes every element of m whose counterpart in gate is
// <= 0 — the ReLU backward gate over a whole batch of hidden deltas, with
// gate holding the post-ReLU activations.
func ZeroWhereNonPos(m, gate *Matrix) {
	if m.Rows != gate.Rows || m.Cols != gate.Cols {
		panic(fmt.Sprintf("linalg: gate shape %dx%d, want %dx%d", gate.Rows, gate.Cols, m.Rows, m.Cols))
	}
	for i, g := range gate.Data {
		if g <= 0 {
			m.Data[i] = 0
		}
	}
}

// ReLURows clamps every element of m to [0, ∞) in place.
func ReLURows(m *Matrix) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// SoftmaxRows applies the softmax row-wise in place.
func SoftmaxRows(m *Matrix) {
	parallelRows(m.Rows, m.Rows*m.Cols*8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			Softmax(row, row)
		}
	})
}

// ArgMaxRows returns the per-row argmax (first index on ties).
func ArgMaxRows(m *Matrix) []int {
	out := make([]int, m.Rows)
	for i := range out {
		out[i] = ArgMax(m.Row(i))
	}
	return out
}
