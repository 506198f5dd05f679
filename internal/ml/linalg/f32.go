package linalg

import (
	"fmt"
	"math"
)

// Reduced-precision kernel path. Matrix32 mirrors Matrix in float32: half
// the memory traffic per element, which is what the training hot path is
// bound by once gradients are batched. The float32 kernels are free of the
// bit-exactness contract the float64 kernels carry — float64 stays the
// parity reference — so their inner loops unroll into multiple independent
// accumulators (the compiler keeps them in registers) and tile the inner
// dimension like the float64 MatMul. They are still deterministic: the
// accumulation schedule is fixed and fan-out is across output rows, so any
// worker count produces identical bits run to run.

// Matrix32 is a dense row-major float32 matrix.
type Matrix32 struct {
	Rows int
	Cols int
	Data []float32
}

// NewMatrix32 allocates a zero float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the r-th row as a shared slice.
func (m *Matrix32) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// At returns the element at (r, c).
func (m *Matrix32) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Convert32 narrows src into dst element-wise. Lengths must match.
func Convert32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: convert length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// Dot32 returns the float32 inner product of a and b, accumulated in four
// independent lanes (reassociation is allowed off the parity path; the
// lane split is fixed, so results are deterministic).
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4], b[i:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy32 computes dst += s·src element-wise.
func Axpy32(dst, src []float32, s float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += s * src[i]
	}
}

// axpyInit32 writes dst = s·src element-wise (overwrite-init; the float32
// path has no -0.0 parity obligation to preserve).
func axpyInit32(dst, src []float32, s float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] = s * src[i]
	}
}

// Zero32 clears v in place.
func Zero32(v []float32) {
	for i := range v {
		v[i] = 0
	}
}

// MatMul32Into computes C = A·B in float32 into a caller-owned c
// (overwritten), cache-blocked over the inner dimension (i-k-j with blockK
// tiling, so B streams forward through the cache at twice the rows per line).
func MatMul32Into(a, b, c *Matrix32) {
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
			axpyInit32(cRow, b.Row(0), aRow[0])
			for k0 := 1; k0 < a.Cols; k0 += blockK {
				k1 := k0 + blockK
				if k1 > a.Cols {
					k1 = a.Cols
				}
				for k := k0; k < k1; k++ {
					Axpy32(cRow, b.Row(k), aRow[k])
				}
			}
		}
	})
}

// AffineT32Into computes C = A·Wᵀ + bias in float32, the reduced-precision
// batched affine layer, into a caller-owned c. Like the float64 AffineTInto
// it tiles sample rows with the weight loop outermost, so W streams through
// memory once per affineTileRows samples instead of once per sample.
func AffineT32Into(a, w *Matrix32, bias []float32, c *Matrix32) {
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
				for i := i0; i < i1; i++ {
					c.Row(i)[j] = bj + Dot32(wRow, a.Row(i))
				}
			}
		}
	})
}

// MatTMul32Into computes C = Aᵀ·B into c — the float32 gradient kernel,
// shaped like MatTMulInto.
func MatTMul32Into(a, b, c *Matrix32) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: mattmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: mattmul output %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	parallelRows(c.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			cRow := c.Row(j)
			axpyInit32(cRow, b.Row(0), a.At(0, j))
			for i := 1; i < a.Rows; i++ {
				Axpy32(cRow, b.Row(i), a.At(i, j))
			}
		}
	})
}

// ColSums32Into writes the per-column sums of a into dst (overwritten).
func ColSums32Into(a *Matrix32, dst []float32) {
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("linalg: colsums length %d, want %d", len(dst), a.Cols))
	}
	axpyInit32(dst, a.Row(0), 1)
	for i := 1; i < a.Rows; i++ {
		Axpy32(dst, a.Row(i), 1)
	}
}

// ReLURows32 clamps every element of m to [0, ∞) in place.
func ReLURows32(m *Matrix32) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// ZeroWhereNonPos32 zeroes every element of m whose counterpart in gate is
// <= 0 — the float32 ReLU backward gate.
func ZeroWhereNonPos32(m, gate *Matrix32) {
	if m.Rows != gate.Rows || m.Cols != gate.Cols {
		panic(fmt.Sprintf("linalg: gate shape %dx%d, want %dx%d", gate.Rows, gate.Cols, m.Rows, m.Cols))
	}
	for i, g := range gate.Data {
		if g <= 0 {
			m.Data[i] = 0
		}
	}
}

// SoftmaxRows32 applies the softmax row-wise in place with the max-shift
// trick. Exponentials go through float64 math.Exp (there is no float32 exp
// in the stdlib); the row normalization stays float32.
func SoftmaxRows32(m *Matrix32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		if len(row) == 0 {
			continue
		}
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// SparseAffineT32Into computes C = A·Wᵀ + bias for a CSR A against float32
// weights, narrowing each stored value as it is consumed — the sparse
// first-layer forward of the reduced-precision training path.
func SparseAffineT32Into(a *SparseMatrix, w *Matrix32, bias []float32, c *Matrix32) {
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
					sum := bj
					for k, col := range cols {
						sum += float32(vals[k]) * wRow[col]
					}
					c.Row(i)[j] = sum
				}
			}
		}
	})
}
