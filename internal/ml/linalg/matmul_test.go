package linalg

import (
	"math"
	"runtime"
	"testing"
)

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Errorf("FromRows = %dx%d %v", m.Rows, m.Cols, m.Data)
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("zero-width rows accepted")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestRowSlicesShareStorage(t *testing.T) {
	m := NewMatrix(2, 2)
	rows := m.RowSlices()
	rows[1][0] = 7
	if m.At(1, 0) != 7 {
		t.Error("RowSlices returned copies, want views")
	}
}

func TestMatMulT(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 7}, {6, 8}}) // Bᵀ of the MatMul case
	c := MatMulT(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulT = %v, want %v", c.Data, want)
		}
	}
}

func TestAffineT(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {0, -1}})
	w, _ := FromRows([][]float64{{1, 1}, {2, 0}, {0, 3}})
	c := AffineT(a, w, []float64{10, 20, 30})
	want := []float64{13, 22, 36, 9, 20, 27}
	for i, wv := range want {
		if c.Data[i] != wv {
			t.Fatalf("AffineT = %v, want %v", c.Data, want)
		}
	}
}

// TestAffineTIntoMatchesPerCell pins the kernel's documented contract
// across the row tiling and the four-sample interleave: every cell must be
// exactly bias[j] + Dot(w.Row(j), a.Row(i)). Sizes are chosen to leave
// remainders at both the 16-row tile and the 4-row interleave, so the
// cleanup loops are checked along with the steady state.
func TestAffineTIntoMatchesPerCell(t *testing.T) {
	const n, d, h = 37, 29, 23
	a := NewMatrix(n, d)
	w := NewMatrix(h, d)
	bias := make([]float64, h)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i))
	}
	for i := range w.Data {
		w.Data[i] = math.Cos(float64(i))
	}
	for i := range bias {
		bias[i] = math.Sin(float64(i) * 0.7)
	}
	c := NewMatrix(n, h)
	AffineTInto(a, w, bias, c)
	for i := 0; i < n; i++ {
		for j := 0; j < h; j++ {
			if want := bias[j] + Dot(w.Row(j), a.Row(i)); c.At(i, j) != want {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"MatMulT":     func() { MatMulT(a, NewMatrix(2, 4)) },
		"AffineT":     func() { AffineT(a, NewMatrix(2, 4), []float64{1, 2}) },
		"AffineTBias": func() { AffineT(a, NewMatrix(2, 3), []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s shape mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMatMulParallelMatchesSerial exercises the goroutine fan-out path (a
// product large enough to cross parallelFlops) and checks MatMulT against a
// plain triple loop.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	const n, k, m = 64, 48, 40
	if n*k*m < parallelFlops && runtime.GOMAXPROCS(0) > 1 {
		t.Logf("product below the parallel threshold; serial path only")
	}
	a := NewMatrix(n, k)
	b := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i))
	}
	for i := range b.Data {
		b.Data[i] = math.Cos(float64(i))
	}
	got := MatMulT(a, b)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var want float64
			for kk := 0; kk < k; kk++ {
				want += a.At(i, kk) * b.At(j, kk)
			}
			if math.Abs(got.At(i, j)-want) > 1e-9 {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestReLURows(t *testing.T) {
	m, _ := FromRows([][]float64{{-1, 2}, {0, -3}})
	ReLURows(m)
	want := []float64{0, 2, 0, 0}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("ReLURows = %v", m.Data)
		}
	}
}

// TestSoftmaxRowsMatchesSoftmax checks that the batched row softmax is
// bit-identical to the per-vector Softmax the serial forward paths use.
func TestSoftmaxRowsMatchesSoftmax(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {-5, 0, 5}, {1000, 999, 998}})
	want := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
	for i := 0; i < want.Rows; i++ {
		row := want.Row(i)
		Softmax(row, row)
	}
	SoftmaxRows(m)
	for i, w := range want.Data {
		if m.Data[i] != w {
			t.Fatalf("SoftmaxRows[%d] = %g, serial %g", i, m.Data[i], w)
		}
	}
}

func TestArgMaxRows(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 3, 2}, {5, 5, 1}, {-2, -1, -3}})
	got := ArgMaxRows(m)
	want := []int{1, 0, 1}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("ArgMaxRows = %v, want %v", got, want)
		}
	}
}

// TestStepSumMatchesStepSequence pins the bit-identity contract: StepSum
// over gradient shards must reproduce the Zero/Axpy/Scale/Step sequence the
// minibatch loops used before the fused path.
func TestStepSumMatchesStepSequence(t *testing.T) {
	const size = 17
	shards := [][]float64{make([]float64, size), make([]float64, size)}
	for i := 0; i < size; i++ {
		shards[0][i] = math.Sin(float64(i)) * 3
		shards[1][i] = math.Cos(float64(i)) * 2
	}
	const scale = 1.0 / 3

	oldAdam, _ := NewAdam(size, 0.01)
	oldParams := make([]float64, size)
	newAdam, _ := NewAdam(size, 0.01)
	newParams := make([]float64, size)

	grads := make([]float64, size)
	for step := 0; step < 25; step++ {
		Zero(grads)
		for _, s := range shards {
			Axpy(grads, s, 1)
		}
		Scale(grads, scale)
		oldAdam.Step(oldParams, grads)

		newAdam.StepSum(newParams, shards, scale)
	}
	for i := range oldParams {
		if oldParams[i] != newParams[i] {
			t.Fatalf("param %d: StepSum %g, sequence %g", i, newParams[i], oldParams[i])
		}
	}
}

func TestStepSumSizePanics(t *testing.T) {
	adam, _ := NewAdam(3, 0.1)
	defer func() {
		if recover() == nil {
			t.Error("mismatched shard did not panic")
		}
	}()
	adam.StepSum(make([]float64, 3), [][]float64{make([]float64, 2)}, 1)
}
