package linalg

import (
	"math/rand"
	"testing"
)

func randMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMatMulT(b *testing.B) {
	a := randMatrix(128, 256, 1)
	w := randMatrix(128, 256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(a, w)
	}
}

// BenchmarkAffineTBatch vs BenchmarkAffinePerRow measure the same affine
// layer (the MLP hidden layer shape) as one batched kernel call versus the
// per-sample MulVec loop the serial forward used.
func BenchmarkAffineTBatch(b *testing.B) {
	a := randMatrix(256, 512, 1)
	w := randMatrix(64, 512, 2)
	bias := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AffineT(a, w, bias)
	}
}

func BenchmarkAffinePerRow(b *testing.B) {
	a := randMatrix(256, 512, 1)
	w := randMatrix(64, 512, 2)
	bias := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < a.Rows; r++ {
			out := make([]float64, w.Rows)
			aRow := a.Row(r)
			for j := 0; j < w.Rows; j++ {
				out[j] = bias[j] + Dot(w.Row(j), aRow)
			}
		}
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	m := randMatrix(512, 32, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(m)
	}
}

func BenchmarkStepSum(b *testing.B) {
	const size = 8192
	adam, _ := NewAdam(size, 1e-3)
	params := make([]float64, size)
	shards := [][]float64{randMatrix(1, size, 4).Data, randMatrix(1, size, 5).Data}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adam.StepSum(params, shards, 0.5)
	}
}

// BenchmarkStepSequence is the unfused Zero/Axpy/Scale/Step equivalent of
// BenchmarkStepSum for comparison.
func BenchmarkStepSequence(b *testing.B) {
	const size = 8192
	adam, _ := NewAdam(size, 1e-3)
	params := make([]float64, size)
	shards := [][]float64{randMatrix(1, size, 4).Data, randMatrix(1, size, 5).Data}
	grads := make([]float64, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Zero(grads)
		for _, s := range shards {
			Axpy(grads, s, 1)
		}
		Scale(grads, 0.5)
		adam.Step(params, grads)
	}
}
