package mlp

import (
	"math/rand"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

func benchFitted(b *testing.B, n int) (*MLP, [][]float64, *linalg.SparseMatrix) {
	b.Helper()
	centers := [][]float64{make([]float64, 128), make([]float64, 128), make([]float64, 128)}
	for c, center := range centers {
		for d := c * 40; d < c*40+40; d++ {
			center[d] = 1
		}
	}
	x, y := blobs(centers, n/3, 0.3, 1)
	cfg := testConfig(3)
	cfg.Epochs = 10
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fit(b, m, x, y)
	return m, x, csr(b, x)
}

// tableIISparse builds a CSR training set at the paper's Table II scale:
// 400 samples over a 4096-bucket feature space with ~200 stored entries
// per row — the shape the elevation-profile attack trains at, and the one
// the training-path benchmarks should be judged on.
func tableIISparse() (*linalg.SparseMatrix, []int) {
	const n, d, k = 400, 4096, 4
	const nnzPerRow = 200
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	y := make([]int, n)
	for i := range rows {
		r := make([]float64, d)
		for t := 0; t < nnzPerRow; t++ {
			r[rng.Intn(d)] = float64(rng.Intn(5) + 1)
		}
		rows[i] = r
		y[i] = rng.Intn(k)
	}
	m, _ := linalg.FromRows(rows)
	return linalg.SparseFromDense(m), y
}

func benchFitSparse(b *testing.B, float32Path bool) {
	sp, y := tableIISparse()
	cfg := Config{Classes: 4, Hidden: 100, Epochs: 4, BatchSize: 16, LearningRate: 1e-3, Seed: 42, Float32: float32Path}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.FitSparse(sp, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSparseTableII(b *testing.B)   { benchFitSparse(b, false) }
func BenchmarkFitSparse32TableII(b *testing.B) { benchFitSparse(b, true) }

func BenchmarkPredictLoop(b *testing.B) {
	m, x, _ := benchFitted(b, 240)
	rows := make([]*linalg.SparseMatrix, len(x))
	for j := range x {
		rows[j] = csr(b, x[j:j+1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if _, err := m.PredictBatchSparse(row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	m, _, sp := benchFitted(b, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictBatchSparse(sp); err != nil {
			b.Fatal(err)
		}
	}
}
