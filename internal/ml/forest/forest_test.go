package forest

import (
	"math/rand"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

func blobs(centers [][]float64, perClass int, spread float64, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for c, center := range centers {
		for i := 0; i < perClass; i++ {
			p := make([]float64, len(center))
			for d := range center {
				p[d] = center[d] + rng.NormFloat64()*spread
			}
			x = append(x, p)
			y = append(y, c)
		}
	}
	return x, y
}

func testConfig(classes int) Config {
	cfg := DefaultConfig(classes)
	cfg.Trees = 25 // plenty for tests, faster
	return cfg
}

// csr converts dense rows to the CSR batch the forest consumes.
func csr(t testing.TB, x [][]float64) *linalg.SparseMatrix {
	t.Helper()
	m, err := linalg.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	return linalg.SparseFromDense(m)
}

// fit trains f on dense rows through FitSparse.
func fit(t testing.TB, f *Forest, x [][]float64, y []int) {
	t.Helper()
	if err := f.FitSparse(csr(t, x), y); err != nil {
		t.Fatal(err)
	}
}

// predict returns the forest's vote for every row of x.
func predict(t testing.TB, f *Forest, x [][]float64) []int {
	t.Helper()
	preds, err := f.PredictBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

// voteShares returns the per-class vote fractions for every row of x.
func voteShares(t testing.TB, f *Forest, x [][]float64) *linalg.Matrix {
	t.Helper()
	votes, err := f.voteBatchSparse(csr(t, x))
	if err != nil {
		t.Fatal(err)
	}
	inv := 1 / float64(len(f.trees))
	for i, v := range votes.Data {
		votes.Data[i] = v * inv
	}
	return votes
}

func accuracy(t *testing.T, f *Forest, x [][]float64, y []int) float64 {
	t.Helper()
	var correct int
	for i, p := range predict(t, f, x) {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// TestRefitMatchesFresh pins the Fit contract shared by all four
// classifiers: refitting a used model is bit-identical to fitting a fresh
// one — tree RNGs derive from cfg.Seed and the tree index, never from
// state left by a previous fit.
func TestRefitMatchesFresh(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {6, 6}}, 20, 0.5, 9)
	refit, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, refit, x, y)
	fit(t, refit, x, y)
	fresh, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, fresh, x, y)
	want, got := voteShares(t, fresh, x), voteShares(t, refit, x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("vote share %d: refit %v, fresh %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Classes: 1, Trees: 10, MinLeaf: 1},
		{Classes: 2, Trees: 0, MinLeaf: 1},
		{Classes: 2, Trees: 10, MinLeaf: 0},
		{Classes: 2, Trees: 10, MinLeaf: 1, MaxDepth: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSeparableBlobs(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {6, 6}, {0, 6}}, 30, 0.5, 1)
	f, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)
	if acc := accuracy(t, f, x, y); acc < 0.95 {
		t.Errorf("accuracy = %f", acc)
	}
}

func TestNonLinearXOR(t *testing.T) {
	// XOR is where trees beat linear models.
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)
	if acc := accuracy(t, f, x, y); acc < 0.9 {
		t.Errorf("XOR accuracy = %f, want >= 0.9", acc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {3, 3}}, 25, 1.0, 3)
	probe := [][]float64{{1.5, 1.5}, {0.2, 2.8}, {-1, 0}, {3.2, 2.9}}

	run := func() []int {
		f, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		fit(t, f, x, y)
		return predict(t, f, probe)
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestPureNodeShortCircuits(t *testing.T) {
	// All one... needs 2 classes; use 2 classes but perfectly separated
	// single-feature data.
	x := [][]float64{{0}, {0.1}, {0.2}, {10}, {10.1}, {10.2}}
	y := []int{0, 0, 0, 1, 1, 1}
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)
	if preds := predict(t, f, [][]float64{{0.05}, {9.9}}); preds[0] != 0 || preds[1] != 1 {
		t.Errorf("preds = %v, want [0 1]", preds)
	}
}

func TestConstantFeatures(t *testing.T) {
	// Identical feature vectors for both classes: no split possible; the
	// forest must fall back to majority leaves without crashing.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 0, 0, 1}
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)
	if pred := predict(t, f, [][]float64{{1, 1}})[0]; pred != 0 {
		t.Errorf("majority pred = %d, want 0", pred)
	}
}

func TestMaxDepthBounds(t *testing.T) {
	x, y := blobs([][]float64{{0}, {1}}, 50, 2.0, 4) // heavily overlapped
	cfg := testConfig(2)
	cfg.MaxDepth = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit(t, f, x, y)
	// Depth-1 trees have at most 2 leaves; just verify they predict.
	predict(t, f, [][]float64{{0.5}})
	maxDepth := 0
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n.leaf {
			if d > maxDepth {
				maxDepth = d
			}
			return
		}
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	for _, tree := range f.trees {
		walk(tree, 0)
	}
	if maxDepth > 1 {
		t.Errorf("tree depth %d exceeds MaxDepth 1", maxDepth)
	}
}

func TestFitPredictValidation(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PredictBatchSparse(csr(t, [][]float64{{1}})); err == nil {
		t.Error("predict before fit accepted")
	}
	if err := f.FitSparse(csr(t, [][]float64{{1}}), []int{5}); err == nil {
		t.Error("bad label accepted")
	}
	if err := f.FitSparse(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	x, y := blobs([][]float64{{0}, {5}}, 5, 0.1, 5)
	fit(t, f, x, y)
	if _, err := f.PredictBatchSparse(csr(t, [][]float64{{1, 2}})); err == nil {
		t.Error("wrong-dim predict accepted")
	}
}

func TestWeightedGini(t *testing.T) {
	// Perfect split: left all class 0, right all class 1 -> gini 0.
	left := []int{5, 0}
	total := []int{5, 5}
	if g := weightedGini(left, total, 5, 10); g != 0 {
		t.Errorf("perfect split gini = %f", g)
	}
	// Worst split: both sides 50/50 -> gini 0.5.
	left = []int{2, 2}
	total = []int{4, 4}
	if g := weightedGini(left, total, 4, 8); g != 0.5 {
		t.Errorf("mixed split gini = %f", g)
	}
}
