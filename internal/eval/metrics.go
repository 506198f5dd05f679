// Package eval provides the evaluation machinery of the paper's
// experiments: confusion-matrix metrics (accuracy, macro precision/recall/
// F1, specificity), stratified k-fold cross-validation, inverse-frequency
// class weights, and the round planner for CNN fine-tuning.
package eval

import (
	"fmt"
	"sort"
)

// ConfusionMatrix accumulates (actual, predicted) pairs.
type ConfusionMatrix struct {
	classes int
	// counts[a][p] is how often actual class a was predicted as p.
	counts [][]int
	total  int
}

// NewConfusionMatrix allocates a matrix for the given class count.
func NewConfusionMatrix(classes int) (*ConfusionMatrix, error) {
	if classes < 2 {
		return nil, fmt.Errorf("eval: need >= 2 classes, got %d", classes)
	}
	counts := make([][]int, classes)
	for i := range counts {
		counts[i] = make([]int, classes)
	}
	return &ConfusionMatrix{classes: classes, counts: counts}, nil
}

// Add records one prediction.
func (cm *ConfusionMatrix) Add(actual, predicted int) error {
	if actual < 0 || actual >= cm.classes || predicted < 0 || predicted >= cm.classes {
		return fmt.Errorf("eval: labels (%d,%d) outside [0,%d)", actual, predicted, cm.classes)
	}
	cm.counts[actual][predicted]++
	cm.total++
	return nil
}

// Total returns the number of recorded predictions.
func (cm *ConfusionMatrix) Total() int { return cm.total }

// Count returns counts[actual][predicted].
func (cm *ConfusionMatrix) Count(actual, predicted int) int {
	return cm.counts[actual][predicted]
}

// Accuracy is the fraction of correct predictions.
func (cm *ConfusionMatrix) Accuracy() float64 {
	if cm.total == 0 {
		return 0
	}
	var correct int
	for c := 0; c < cm.classes; c++ {
		correct += cm.counts[c][c]
	}
	return float64(correct) / float64(cm.total)
}

// perClass returns TP, FP, FN, TN for class c.
func (cm *ConfusionMatrix) perClass(c int) (tp, fp, fn, tn int) {
	tp = cm.counts[c][c]
	for o := 0; o < cm.classes; o++ {
		if o == c {
			continue
		}
		fn += cm.counts[c][o]
		fp += cm.counts[o][c]
	}
	tn = cm.total - tp - fp - fn
	return tp, fp, fn, tn
}

// macroAverage averages f over classes that appear (as actual or predicted)
// in the matrix; classes with no presence are skipped, matching the common
// macro-metric convention.
func (cm *ConfusionMatrix) macroAverage(f func(tp, fp, fn, tn int) (float64, bool)) float64 {
	var sum float64
	var n int
	for c := 0; c < cm.classes; c++ {
		tp, fp, fn, tn := cm.perClass(c)
		if v, ok := f(tp, fp, fn, tn); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Precision is the macro-averaged precision TP/(TP+FP).
func (cm *ConfusionMatrix) Precision() float64 {
	return cm.macroAverage(func(tp, fp, fn, tn int) (float64, bool) {
		if tp+fp == 0 {
			return 0, tp+fn > 0 // class existed but nothing predicted: count 0
		}
		return float64(tp) / float64(tp+fp), true
	})
}

// Recall is the macro-averaged recall TP/(TP+FN).
func (cm *ConfusionMatrix) Recall() float64 {
	return cm.macroAverage(func(tp, fp, fn, tn int) (float64, bool) {
		if tp+fn == 0 {
			return 0, false // class absent from the test set
		}
		return float64(tp) / float64(tp+fn), true
	})
}

// F1 is the macro-averaged harmonic mean of per-class precision and recall.
func (cm *ConfusionMatrix) F1() float64 {
	return cm.macroAverage(func(tp, fp, fn, tn int) (float64, bool) {
		if tp+fn == 0 {
			return 0, false
		}
		denom := 2*tp + fp + fn
		if denom == 0 {
			return 0, true
		}
		return 2 * float64(tp) / float64(denom), true
	})
}

// Specificity is the macro-averaged true-negative rate TN/(TN+FP).
func (cm *ConfusionMatrix) Specificity() float64 {
	return cm.macroAverage(func(tp, fp, fn, tn int) (float64, bool) {
		if tn+fp == 0 {
			return 0, false
		}
		return float64(tn) / float64(tn+fp), true
	})
}

// Metrics is the bundle the paper's tables report.
type Metrics struct {
	Accuracy    float64
	Precision   float64
	Recall      float64
	F1          float64
	Specificity float64
}

// Metrics summarizes the matrix.
func (cm *ConfusionMatrix) Metrics() Metrics {
	return Metrics{
		Accuracy:    cm.Accuracy(),
		Precision:   cm.Precision(),
		Recall:      cm.Recall(),
		F1:          cm.F1(),
		Specificity: cm.Specificity(),
	}
}

// MeanMetrics averages a set of per-fold metrics.
func MeanMetrics(ms []Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{}
	}
	var out Metrics
	for _, m := range ms {
		out.Accuracy += m.Accuracy
		out.Precision += m.Precision
		out.Recall += m.Recall
		out.F1 += m.F1
		out.Specificity += m.Specificity
	}
	n := float64(len(ms))
	out.Accuracy /= n
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	out.Specificity /= n
	return out
}

// TopConfusions returns the n most frequent off-diagonal (actual,
// predicted) pairs, most frequent first.
func (cm *ConfusionMatrix) TopConfusions(n int) []Confusion {
	var all []Confusion
	for a := 0; a < cm.classes; a++ {
		for p := 0; p < cm.classes; p++ {
			if a != p && cm.counts[a][p] > 0 {
				all = append(all, Confusion{Actual: a, Predicted: p, Count: cm.counts[a][p]})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		if all[i].Actual != all[j].Actual {
			return all[i].Actual < all[j].Actual
		}
		return all[i].Predicted < all[j].Predicted
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Confusion is one off-diagonal confusion-matrix entry.
type Confusion struct {
	Actual    int
	Predicted int
	Count     int
}
