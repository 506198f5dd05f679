package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 over 500 samples rests on five values and says little.
const minBeyond = 10

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// rank is the 1-based nearest rank of quantile q among n sorted samples.
// The epsilon keeps 0.9*100 from rounding up to rank 91.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailQuantile is the highest candidate percentile with at least minBeyond
// samples beyond it, or 0 when n is too small for any of them.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// dist is a sample of one quantity, sorted on first use.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64)          { d.xs = append(d.xs, x); d.sorted = false }
func (d *dist) addDur(x time.Duration) { d.add(float64(x)) }
func (d *dist) n() int                 { return len(d.xs) }

// q returns the nearest-rank quantile, NaN on an empty sample.
func (d *dist) q(q float64) float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return d.xs[rank(len(d.xs), q)-1]
}

func (d *dist) sum() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s
}

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	return d.sum() / float64(len(d.xs))
}

// quartiles returns Q1, median and Q3 of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the rule the acceptance spread is
// computed with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// interval is a closed stretch of wall time.
type interval struct{ lo, hi time.Time }

// union is the total length covered by at least one of the intervals, so
// concurrent work (parallel folds, two connections) is not double-counted.
func union(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo.Before(s[j].lo) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo.After(cur.hi) {
			total += cur.hi.Sub(cur.lo)
			cur = iv
			continue
		}
		if iv.hi.After(cur.hi) {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi.Sub(cur.lo)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Set-up is repeated and its median reported: at least minSetups times,
// and until setupBudget has passed, at most maxSetups times.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 500 * time.Millisecond
)

// measureSetup runs build repeatedly, records the median duration as
// setup_s, and returns the last build. Every earlier one is handed to
// discard, when set. A quick run sets up once. The garbage set-up leaves
// is collected before measuring starts, so no run pays for it.
func measureSetup[T any](r *record, build func(i int) (T, error), discard func(T) error) (T, error) {
	var v T
	start := time.Now()
	for i := 0; ; i++ {
		err := r.timeSetup(func() (err error) {
			v, err = build(i)
			return err
		})
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		if r.Quick || i+1 >= maxSetups || (i+1 >= minSetups && time.Since(start) >= setupBudget) {
			runtime.GC()
			return v, nil
		}
		if discard != nil {
			if err := discard(v); err != nil {
				return v, err
			}
		}
	}
}
