package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %f, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("empty Dot = %f", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Dot did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyAndScale(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(dst, []float64{10, 20, 30}, 0.5)
	want := []float64{6, 12, 18}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("Axpy[%d] = %f, want %f", i, dst[i], want[i])
		}
	}
	Scale(dst, 2)
	if dst[0] != 12 || dst[2] != 36 {
		t.Errorf("Scale = %v", dst)
	}
	Zero(dst)
	for _, v := range dst {
		if v != 0 {
			t.Errorf("Zero = %v", dst)
		}
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{2, 2, 2}, 0}, // first on ties
		{[]float64{-5, -1, -9}, 1},
	}
	for _, tc := range tests {
		if got := ArgMax(tc.in); got != tc.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSoftmax(t *testing.T) {
	out := make([]float64, 3)
	Softmax([]float64{1, 1, 1}, out)
	for _, v := range out {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax = %v", out)
		}
	}
	// Large logits must not overflow.
	Softmax([]float64{1000, 999, 998}, out)
	var sum float64
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", out)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sum = %f", sum)
	}
	if out[0] <= out[1] || out[1] <= out[2] {
		t.Errorf("ordering lost: %v", out)
	}
}

func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		logits := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				logits = append(logits, math.Mod(v, 500))
			}
		}
		if len(logits) == 0 {
			return true
		}
		out := make([]float64, len(logits))
		Softmax(logits, out)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Data[2*m.Cols+3] = 7
	if m.At(2, 3) != 7 {
		t.Error("At broken")
	}
	row := m.Row(2)
	if len(row) != 4 || row[3] != 7 {
		t.Errorf("Row = %v", row)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = Σ (x_i - target_i)^2.
	target := []float64{3, -2, 0.5}
	params := make([]float64, 3)
	adam, err := NewAdam(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]float64, 3)
	for step := 0; step < 2000; step++ {
		for i := range params {
			grads[i] = 2 * (params[i] - target[i])
		}
		adam.Step(params, grads)
	}
	for i := range params {
		if math.Abs(params[i]-target[i]) > 0.01 {
			t.Errorf("param %d = %f, want %f", i, params[i], target[i])
		}
	}
}

func TestAdamValidation(t *testing.T) {
	if _, err := NewAdam(0, 0.1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewAdam(3, 0); err == nil {
		t.Error("lr 0 accepted")
	}
}

func TestAdamReset(t *testing.T) {
	adam, err := NewAdam(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{1, 1}
	adam.Step(params, []float64{1, 1})
	adam.Reset()
	if adam.t != 0 || adam.m[0] != 0 || adam.v[0] != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the first step is ~lr in the gradient direction.
	adam, err := NewAdam(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{0}
	adam.Step(params, []float64{5})
	if math.Abs(params[0]+0.1) > 1e-6 {
		t.Errorf("first step = %f, want ~-0.1", params[0])
	}
}
