package eval

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/obs"
)

// Evaluation telemetry: each concurrently evaluated fold (train + batch
// score) records its wall time, and whole cross-validations count through
// foldsTotal so dashboards can tell a stuck fold from an idle process.
var (
	foldSeconds = obs.GetHistogram("elevpriv_eval_fold_seconds", nil)
	foldsTotal  = obs.GetCounter("elevpriv_eval_folds_total")
)

// StratifiedKFold partitions sample indices into k folds with every class
// spread evenly across folds. Returns fold -> sample indices.
func StratifiedKFold(labels []int, k int, rng *rand.Rand) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: k must be >= 2, got %d", k)
	}
	if len(labels) < k {
		return nil, fmt.Errorf("eval: %d samples for %d folds", len(labels), k)
	}

	byClass := map[int][]int{}
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}

	folds := make([][]int, k)
	// Deterministic class order: iterate labels ascending.
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sortInts(classes)

	next := 0
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			folds[next%k] = append(folds[next%k], i)
			next++
		}
	}
	return folds, nil
}

// sortInts is insertion sort; class counts are tiny.
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// CrossValidateSparse runs k-fold cross-validation over a CSR feature
// matrix (one sample per row): for each fold, a fresh classifier from
// factory trains on the remaining folds' rows and is scored on the
// held-out fold with one PredictBatchSparse call; per-fold metrics are
// averaged (the paper averages the results of the 10 folds). Folds
// evaluate concurrently; the stratified split and every classifier seed
// derive from seed, so results are deterministic regardless of scheduling.
func CrossValidateSparse(sp *linalg.SparseMatrix, y []int, classes, k int, seed int64, factory func() (ml.Classifier, error)) (Metrics, error) {
	cms, err := crossValidate(sp, y, classes, k, seed, factory)
	if err != nil {
		return Metrics{}, err
	}
	perFold := make([]Metrics, len(cms))
	for f, cm := range cms {
		perFold[f] = cm.Metrics()
	}
	return MeanMetrics(perFold), nil
}

// CrossValidateConfusion runs the same k-fold protocol but returns the
// POOLED confusion matrix over all folds, for error analysis (which
// classes get confused with which).
func CrossValidateConfusion(sp *linalg.SparseMatrix, y []int, classes, k int, seed int64, factory func() (ml.Classifier, error)) (*ConfusionMatrix, error) {
	cms, err := crossValidate(sp, y, classes, k, seed, factory)
	if err != nil {
		return nil, err
	}
	pooled, err := NewConfusionMatrix(classes)
	if err != nil {
		return nil, err
	}
	for _, cm := range cms {
		for a := 0; a < classes; a++ {
			for p := 0; p < classes; p++ {
				for n := 0; n < cm.Count(a, p); n++ {
					if err := pooled.Add(a, p); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return pooled, nil
}

// crossValidate splits the samples into k stratified folds and evaluates
// every fold concurrently; per-fold confusion matrices land in fixed
// slots, so results are deterministic.
func crossValidate(sp *linalg.SparseMatrix, y []int, classes, k int, seed int64, factory func() (ml.Classifier, error)) ([]*ConfusionMatrix, error) {
	if sp.Rows != len(y) {
		return nil, fmt.Errorf("eval: %d samples but %d labels", sp.Rows, len(y))
	}
	folds, err := StratifiedKFold(y, k, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	cms := make([]*ConfusionMatrix, len(folds))
	errs := make([]error, len(folds))
	var wg sync.WaitGroup
	for f := range folds {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			start := time.Now()
			cms[f], errs[f] = evaluateFold(sp, y, classes, folds[f], factory)
			foldSeconds.ObserveSince(start)
			foldsTotal.Inc()
		}(f)
	}
	wg.Wait()
	for f, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: %w", f, err)
		}
	}
	return cms, nil
}

// evaluateFold trains a fresh classifier on everything outside the fold
// and scores the fold in one batch prediction, gathering both halves as
// CSR sub-matrices.
func evaluateFold(sp *linalg.SparseMatrix, y []int, classes int, fold []int, factory func() (ml.Classifier, error)) (*ConfusionMatrix, error) {
	holdout := map[int]bool{}
	for _, i := range fold {
		holdout[i] = true
	}
	trainIdx := make([]int, 0, sp.Rows-len(fold))
	trainY := make([]int, 0, sp.Rows-len(fold))
	for i := 0; i < sp.Rows; i++ {
		if !holdout[i] {
			trainIdx = append(trainIdx, i)
			trainY = append(trainY, y[i])
		}
	}

	clf, err := factory()
	if err != nil {
		return nil, err
	}
	if err := clf.FitSparse(sp.GatherRows(trainIdx), trainY); err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	preds, err := clf.PredictBatchSparse(sp.GatherRows(fold))
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}

	cm, err := NewConfusionMatrix(classes)
	if err != nil {
		return nil, err
	}
	for k, i := range fold {
		if err := cm.Add(y[i], preds[k]); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

// InverseClassWeights returns per-class weights inversely proportional to
// class frequency, normalized so the mean weight is 1 — the paper's
// weighted-loss setting for unbalanced datasets.
func InverseClassWeights(labels []int, classes int) ([]float64, error) {
	if classes < 2 {
		return nil, fmt.Errorf("eval: need >= 2 classes, got %d", classes)
	}
	counts := make([]int, classes)
	for _, y := range labels {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("eval: label %d outside [0,%d)", y, classes)
		}
		counts[y]++
	}
	weights := make([]float64, classes)
	var sum float64
	var present int
	for c, n := range counts {
		if n > 0 {
			weights[c] = 1 / float64(n)
			sum += weights[c]
			present++
		}
	}
	if present == 0 {
		return nil, fmt.Errorf("eval: no labels")
	}
	// Normalize to mean 1 over present classes.
	scale := float64(present) / sum
	for c := range weights {
		weights[c] *= scale
	}
	return weights, nil
}
