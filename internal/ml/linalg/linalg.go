// Package linalg provides the small dense linear-algebra kernel the
// classifiers are built on: vector primitives, a row-major matrix, softmax
// utilities, and the Adam optimizer.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. Lengths must match.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// Axpy computes dst += s*src element-wise.
func Axpy(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += s * src[i]
	}
}

// Scale multiplies every element of v by s in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Zero clears v in place.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// ArgMax returns the index of the largest element (first on ties), or -1
// for an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of logits into out (shared backing allowed)
// using the max-shift trick for numerical stability.
func Softmax(logits, out []float64) {
	if len(logits) != len(out) {
		panic(fmt.Sprintf("linalg: softmax length mismatch %d vs %d", len(logits), len(out)))
	}
	if len(logits) == 0 {
		return
	}
	maxV := logits[0]
	for _, v := range logits[1:] {
		maxV = math.Max(maxV, v)
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows int
	Cols int
	Data []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Row returns the r-th row as a shared slice.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }
