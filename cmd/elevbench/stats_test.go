package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {60000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailQuantile(tc.n); q > 0 && beyond(tc.n, q) < minBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves %d samples beyond", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestNearestRankQuantile(t *testing.T) {
	d := &dist{}
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := d.q(tc.q); got != tc.want {
			t.Errorf("q(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(xs, n=4), which the acceptance spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7}, 1, 7, 10},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestUnionCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{{at(10), at(20)}, {at(0), at(5)}, {at(15), at(30)}, {at(40), at(41)}}
	if got, want := union(ivs), 26*time.Millisecond; got != want {
		t.Errorf("union = %v, want %v", got, want)
	}
}
