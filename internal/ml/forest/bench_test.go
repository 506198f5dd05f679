package forest

import (
	"testing"

	"elevprivacy/internal/ml/linalg"
)

func benchFitted(b *testing.B, n int) (*Forest, [][]float64, *linalg.SparseMatrix) {
	b.Helper()
	centers := [][]float64{{0, 0, 0, 0}, {5, 0, 5, 0}, {0, 5, 0, 5}}
	x, y := blobs(centers, n/3, 1.0, 1)
	cfg := testConfig(3)
	cfg.Trees = 50
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fit(b, f, x, y)
	return f, x, csr(b, x)
}

func BenchmarkFit(b *testing.B) {
	x, y := blobs([][]float64{{0, 0, 0, 0}, {5, 0, 5, 0}, {0, 5, 0, 5}}, 60, 1.0, 1)
	sp := csr(b, x)
	cfg := testConfig(3)
	cfg.Trees = 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.FitSparse(sp, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictLoop(b *testing.B) {
	f, x, _ := benchFitted(b, 240)
	rows := make([]*linalg.SparseMatrix, len(x))
	for j := range x {
		rows[j] = csr(b, x[j:j+1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if _, err := f.PredictBatchSparse(row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	f, _, sp := benchFitted(b, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.PredictBatchSparse(sp); err != nil {
			b.Fatal(err)
		}
	}
}
