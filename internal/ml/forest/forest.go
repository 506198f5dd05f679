// Package forest implements a random forest classifier — bootstrap-sampled
// CART trees with Gini splits and √d feature subsampling, majority-voted —
// matching the paper's "standard RFC, with 100 trees".
package forest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
)

// Config tunes the forest.
type Config struct {
	// Classes is the number of classes.
	Classes int
	// Trees is the ensemble size (paper: 100).
	Trees int
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum sample count in a leaf.
	MinLeaf int
	// FeaturesPerSplit is the number of candidate features per split;
	// 0 means ⌈√d⌉.
	FeaturesPerSplit int
	// Seed drives bootstrap and feature sampling.
	Seed int64
}

// DefaultConfig returns the paper's forest: 100 trees.
func DefaultConfig(classes int) Config {
	return Config{
		Classes:  classes,
		Trees:    100,
		MaxDepth: 24,
		MinLeaf:  1,
		Seed:     1,
	}
}

// Forest is a trained random forest.
type Forest struct {
	cfg   Config
	dim   int
	trees []*node
}

var _ ml.Classifier = (*Forest)(nil)

// node is one CART tree node; leaves carry a class.
type node struct {
	leaf      bool
	class     int
	feature   int
	threshold float64
	left      *node
	right     *node
}

// New creates an untrained forest.
func New(cfg Config) (*Forest, error) {
	switch {
	case cfg.Classes < 2:
		return nil, fmt.Errorf("forest: need >= 2 classes, got %d", cfg.Classes)
	case cfg.Trees < 1:
		return nil, fmt.Errorf("forest: need >= 1 tree, got %d", cfg.Trees)
	case cfg.MinLeaf < 1:
		return nil, fmt.Errorf("forest: MinLeaf must be >= 1, got %d", cfg.MinLeaf)
	case cfg.MaxDepth < 0:
		return nil, fmt.Errorf("forest: negative MaxDepth %d", cfg.MaxDepth)
	}
	return &Forest{cfg: cfg}, nil
}

// FitSparse grows all trees on bootstrap resamples. Split search sorts
// whole feature columns, so the forest is the one model that wants dense
// rows: it densifies the CSR batch once, here, and the grown trees are
// exactly those dense rows would give. Trees are independent and grow
// concurrently, each with its own seeded RNG for determinism.
func (f *Forest) FitSparse(sp *linalg.SparseMatrix, y []int) error {
	if err := ml.ValidateSparseTrainingSet(sp, y, f.cfg.Classes); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	x := sp.ToDense().RowSlices()
	dim := sp.Cols
	f.dim = dim

	mtry := f.cfg.FeaturesPerSplit
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(dim))))
	}
	if mtry > dim {
		mtry = dim
	}

	// Bounded worker pool: GOMAXPROCS workers pull tree indices from a
	// shared channel, so a 100-tree forest does not spawn 100 goroutines
	// each holding sort scratch. Every tree derives its RNG from Seed and
	// its own index, so the grown forest is byte-identical to a serial
	// (or differently scheduled) run.
	f.trees = make([]*node, f.cfg.Trees)
	workers := runtime.GOMAXPROCS(0)
	if workers > f.cfg.Trees {
		workers = f.cfg.Trees
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := make([]int, len(x))
			scr := newSplitScratch(dim, len(x), f.cfg.Classes)
			for t := range work {
				rng := rand.New(rand.NewSource(f.cfg.Seed + int64(t)*104729))
				for i := range idx {
					idx[i] = rng.Intn(len(x))
				}
				f.trees[t] = f.grow(x, y, idx, mtry, 0, rng, scr)
			}
		}()
	}
	for t := 0; t < f.cfg.Trees; t++ {
		work <- t
	}
	close(work)
	wg.Wait()
	return nil
}

// splitScratch holds the per-worker buffers bestSplit reuses across every
// split of every tree the worker grows: the feature permutation, the
// (value, class) pairs under sort, and the left-side class counts. One
// worker previously allocated all three per split — a fresh rand.Perm slice
// plus two more for each of the thousands of nodes in a deep forest.
type splitScratch struct {
	perm       []int
	pairs      []pair
	leftCounts []int
}

// pair is one (feature value, class) sample under the split sweep's sort.
type pair struct {
	v float64
	c int
}

func newSplitScratch(dim, samples, classes int) *splitScratch {
	return &splitScratch{
		perm:       make([]int, dim),
		pairs:      make([]pair, samples),
		leftCounts: make([]int, classes),
	}
}

// fillPerm writes a uniform random permutation of [0, len(p)) into p,
// consuming exactly the rng draws rand.Perm consumes (one Intn(i+1) per
// position, same insertion scheme), so replacing rand.Perm with a reused
// buffer leaves every grown tree byte-identical.
func fillPerm(p []int, rng *rand.Rand) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// grow recursively builds a tree over the samples in idx.
func (f *Forest) grow(x [][]float64, y []int, idx []int, mtry, depth int, rng *rand.Rand, scr *splitScratch) *node {
	counts := make([]int, f.cfg.Classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	majority, pure := majorityClass(counts, len(idx))

	if pure ||
		len(idx) < 2*f.cfg.MinLeaf ||
		(f.cfg.MaxDepth > 0 && depth >= f.cfg.MaxDepth) {
		return &node{leaf: true, class: majority}
	}

	feature, threshold, ok := f.bestSplit(x, y, idx, counts, mtry, rng, scr)
	if !ok {
		return &node{leaf: true, class: majority}
	}

	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < f.cfg.MinLeaf || len(right) < f.cfg.MinLeaf {
		return &node{leaf: true, class: majority}
	}
	return &node{
		feature:   feature,
		threshold: threshold,
		left:      f.grow(x, y, left, mtry, depth+1, rng, scr),
		right:     f.grow(x, y, right, mtry, depth+1, rng, scr),
	}
}

// bestSplit scans mtry random features for the split minimizing weighted
// Gini impurity, sweeping sorted values with incremental class counts. All
// buffers come from scr; the only allocations left on the split path are
// sort.Slice's closure.
func (f *Forest) bestSplit(x [][]float64, y []int, idx []int, counts []int, mtry int, rng *rand.Rand, scr *splitScratch) (feature int, threshold float64, ok bool) {
	bestGini := math.Inf(1)

	pairs := scr.pairs[:len(idx)]
	leftCounts := scr.leftCounts

	fillPerm(scr.perm, rng)
	for _, feat := range scr.perm[:mtry] {
		for k, i := range idx {
			pairs[k] = pair{v: x[i][feat], c: y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })

		for i := range leftCounts {
			leftCounts[i] = 0
		}
		nLeft := 0
		total := len(pairs)

		for k := 0; k < total-1; k++ {
			leftCounts[pairs[k].c]++
			nLeft++
			if pairs[k].v == pairs[k+1].v {
				continue // can't split between equal values
			}
			g := weightedGini(leftCounts, counts, nLeft, total)
			if g < bestGini {
				bestGini = g
				feature = feat
				threshold = (pairs[k].v + pairs[k+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// weightedGini computes the split's impurity from left-side class counts
// and the node's total class counts.
func weightedGini(leftCounts, totalCounts []int, nLeft, total int) float64 {
	nRight := total - nLeft
	var giniL, giniR float64 = 1, 1
	for c := range leftCounts {
		l := float64(leftCounts[c]) / float64(nLeft)
		r := float64(totalCounts[c]-leftCounts[c]) / float64(nRight)
		giniL -= l * l
		giniR -= r * r
	}
	return (float64(nLeft)*giniL + float64(nRight)*giniR) / float64(total)
}

// majorityClass returns the most frequent class (lowest index on ties) and
// whether the node is pure.
func majorityClass(counts []int, total int) (class int, pure bool) {
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best, counts[best] == total
}

// PredictBatchSparse majority-votes the trees over every row of a CSR
// feature batch (lowest class index on ties).
func (f *Forest) PredictBatchSparse(x *linalg.SparseMatrix) ([]int, error) {
	votes, err := f.voteBatchSparse(x)
	if err != nil {
		return nil, err
	}
	return linalg.ArgMaxRows(votes), nil
}

// voteBatchSparse tallies tree votes for a CSR batch. Workers split the
// ROWS: each scatters its row once into a private dense scratch, walks
// every tree while the row is hot, then clears only the touched positions.
// Per-row tallies are independent, so any worker count — and any batch a
// row shares — produces the same counts.
func (f *Forest) voteBatchSparse(x *linalg.SparseMatrix) (*linalg.Matrix, error) {
	if f.trees == nil {
		return nil, fmt.Errorf("forest: model not fitted")
	}
	if x.Cols != f.dim {
		return nil, fmt.Errorf("forest: feature dim %d, model expects %d", x.Cols, f.dim)
	}
	votes := linalg.NewMatrix(x.Rows, f.cfg.Classes)
	workers := runtime.GOMAXPROCS(0)
	if workers > x.Rows {
		workers = x.Rows
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (x.Rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < x.Rows; lo += chunk {
		hi := lo + chunk
		if hi > x.Rows {
			hi = x.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scratch := make([]float64, f.dim)
			for i := lo; i < hi; i++ {
				x.ScatterRow(i, scratch)
				g := votes.Row(i)
				for _, t := range f.trees {
					g[classify(t, scratch)]++
				}
				x.ClearRow(i, scratch)
			}
		}(lo, hi)
	}
	wg.Wait()
	return votes, nil
}

// classify walks one tree.
func classify(n *node, x []float64) int {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}
