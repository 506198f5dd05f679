package svm

import (
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// benchFitted trains a classifier on a BoW-sized problem (512 features,
// the text-attack vocabulary size) for the inference benchmarks.
func benchFitted(b *testing.B, n int) (*SVM, [][]float64, *linalg.SparseMatrix) {
	b.Helper()
	centers := make([][]float64, 4)
	for c := range centers {
		center := make([]float64, 512)
		for d := c * 128; d < (c+1)*128; d++ {
			center[d] = 1
		}
		centers[c] = center
	}
	x, y := gaussianBlobs(centers, n/4, 0.2, 1)
	clf, err := New(DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	fit(b, clf, x, y)
	return clf, x, csr(b, x)
}

func BenchmarkPredictLoop(b *testing.B) {
	clf, x, _ := benchFitted(b, 256)
	rows := make([]*linalg.SparseMatrix, len(x))
	for j := range x {
		rows[j] = csr(b, x[j:j+1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if _, err := clf.PredictBatchSparse(row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	clf, _, sp := benchFitted(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.PredictBatchSparse(sp); err != nil {
			b.Fatal(err)
		}
	}
}
