package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/ml/svm"
)

func TestConfusionMatrixBasics(t *testing.T) {
	cm, err := NewConfusionMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	// 3 correct class 0, 1 correct class 1, 1 miss each way.
	for i := 0; i < 3; i++ {
		_ = cm.Add(0, 0)
	}
	_ = cm.Add(1, 1)
	_ = cm.Add(0, 1)
	_ = cm.Add(1, 0)

	if cm.Total() != 6 {
		t.Errorf("Total = %d", cm.Total())
	}
	if got := cm.Accuracy(); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("Accuracy = %f", got)
	}
	if got := cm.Count(0, 1); got != 1 {
		t.Errorf("Count(0,1) = %d", got)
	}
}

func TestConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix(1); err == nil {
		t.Error("1 class accepted")
	}
	cm, err := NewConfusionMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Add(0, 2); err == nil {
		t.Error("out-of-range predicted accepted")
	}
	if err := cm.Add(-1, 0); err == nil {
		t.Error("negative actual accepted")
	}
}

func TestPerfectClassifierMetrics(t *testing.T) {
	cm, err := NewConfusionMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < 5; i++ {
			_ = cm.Add(c, c)
		}
	}
	m := cm.Metrics()
	for name, v := range map[string]float64{
		"accuracy": m.Accuracy, "precision": m.Precision,
		"recall": m.Recall, "f1": m.F1, "specificity": m.Specificity,
	} {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("%s = %f, want 1", name, v)
		}
	}
}

func TestKnownConfusionMetrics(t *testing.T) {
	// Binary: TP=8 (class1 as 1), FN=2, FP=4, TN=6.
	cm, err := NewConfusionMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	add := func(a, p, n int) {
		for i := 0; i < n; i++ {
			_ = cm.Add(a, p)
		}
	}
	add(1, 1, 8)
	add(1, 0, 2)
	add(0, 1, 4)
	add(0, 0, 6)

	// Class 1: TP=8 FN=2 FP=4 TN=6 -> P = 8/12, R = 8/10, spec = 6/10.
	// Class 0: TP=6 FN=4 FP=2 TN=8 -> P = 6/8, R = 6/10, spec = 8/10.
	wantPrecision := (8.0/12 + 6.0/8) / 2
	wantRecall := (8.0/10 + 6.0/10) / 2
	wantSpec := (6.0/10 + 8.0/10) / 2
	f1c1 := 2 * 8.0 / (2*8 + 4 + 2)
	f1c0 := 2 * 6.0 / (2*6 + 2 + 4)
	wantF1 := (f1c1 + f1c0) / 2

	m := cm.Metrics()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"accuracy", m.Accuracy, 14.0 / 20},
		{"precision", m.Precision, wantPrecision},
		{"recall", m.Recall, wantRecall},
		{"specificity", m.Specificity, wantSpec},
		{"f1", m.F1, wantF1},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %f, want %f", c.name, c.got, c.want)
		}
	}
}

func TestBiasedClassifierHighAccuracyLowRecall(t *testing.T) {
	// The paper's "biased" phenomenon: always predicting the majority class
	// on unbalanced data yields high accuracy but poor macro recall.
	cm, err := NewConfusionMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 95; i++ {
		_ = cm.Add(0, 0)
	}
	for i := 0; i < 5; i++ {
		_ = cm.Add(1, 0) // minority always missed
	}
	m := cm.Metrics()
	if m.Accuracy < 0.9 {
		t.Errorf("accuracy = %f", m.Accuracy)
	}
	if m.Recall > 0.55 {
		t.Errorf("macro recall = %f, should be dragged down by the minority class", m.Recall)
	}
}

func TestMetricsBoundedProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		cm, err := NewConfusionMatrix(4)
		if err != nil {
			return false
		}
		for _, p := range pairs {
			_ = cm.Add(int(p)%4, int(p/4)%4)
		}
		m := cm.Metrics()
		for _, v := range []float64{m.Accuracy, m.Precision, m.Recall, m.F1, m.Specificity} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMetrics(t *testing.T) {
	ms := []Metrics{
		{Accuracy: 0.8, Precision: 0.6, Recall: 0.4, F1: 0.5, Specificity: 0.9},
		{Accuracy: 0.6, Precision: 0.4, Recall: 0.2, F1: 0.3, Specificity: 0.7},
	}
	m := MeanMetrics(ms)
	if math.Abs(m.Accuracy-0.7) > 1e-12 || math.Abs(m.F1-0.4) > 1e-12 {
		t.Errorf("MeanMetrics = %+v", m)
	}
	if z := MeanMetrics(nil); z != (Metrics{}) {
		t.Errorf("empty MeanMetrics = %+v", z)
	}
}

func TestStratifiedKFold(t *testing.T) {
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 4
	}
	rng := rand.New(rand.NewSource(1))
	folds, err := StratifiedKFold(labels, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		if len(fold) != 20 {
			t.Errorf("fold size %d, want 20", len(fold))
		}
		perClass := map[int]int{}
		for _, i := range fold {
			if seen[i] {
				t.Fatalf("sample %d in two folds", i)
			}
			seen[i] = true
			perClass[labels[i]]++
		}
		for c, n := range perClass {
			if n != 5 {
				t.Errorf("fold has %d of class %d, want 5", n, c)
			}
		}
	}
	if len(seen) != 100 {
		t.Errorf("folds cover %d samples", len(seen))
	}
}

func TestStratifiedKFoldValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := StratifiedKFold([]int{0, 1}, 1, rng); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := StratifiedKFold([]int{0}, 2, rng); err == nil {
		t.Error("fewer samples than folds accepted")
	}
}

func TestCrossValidateOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	// Centers point in distinct directions so the blobs stay separable
	// under the SVM's internal L2 normalization.
	centers := [][2]float64{{1, 5}, {5, 1}}
	for c := 0; c < 2; c++ {
		for i := 0; i < 30; i++ {
			x = append(x, []float64{
				centers[c][0] + rng.NormFloat64()*0.5,
				centers[c][1] + rng.NormFloat64()*0.5,
			})
			y = append(y, c)
		}
	}
	m, err := CrossValidateSparse(csr(t, x), y, 2, 5, 7, func() (ml.Classifier, error) {
		return svm.New(svm.DefaultConfig(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.95 {
		t.Errorf("CV accuracy = %f", m.Accuracy)
	}
	if m.Recall < 0.9 || m.F1 < 0.9 {
		t.Errorf("CV metrics = %+v", m)
	}
}

func TestCrossValidateValidation(t *testing.T) {
	one := linalg.SparseFromDense(linalg.NewMatrix(1, 1))
	if _, err := CrossValidateSparse(one, []int{0, 1}, 2, 2, 1, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CrossValidateConfusion(one, []int{0, 1}, 2, 2, 1, nil); err == nil {
		t.Error("length mismatch accepted by the pooled protocol")
	}
}

func TestInverseClassWeights(t *testing.T) {
	labels := []int{0, 0, 0, 0, 1} // 4 vs 1
	w, err := InverseClassWeights(labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio must be 4:1 in favor of the minority.
	if math.Abs(w[1]/w[0]-4) > 1e-12 {
		t.Errorf("weights = %v, want 4x ratio", w)
	}
	// Mean weight 1.
	if math.Abs((w[0]+w[1])/2-1) > 1e-12 {
		t.Errorf("weights not normalized: %v", w)
	}

	if _, err := InverseClassWeights([]int{0, 5}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := InverseClassWeights(nil, 2); err == nil {
		t.Error("empty labels accepted")
	}
}

func TestPlanRoundsPaperTM1(t *testing.T) {
	// Table I: WDC 366, ORL 232, NYC 120, SD 18 -> 3 rounds (paper).
	counts := map[string]int{
		"Washington DC": 366,
		"Orlando":       232,
		"New York City": 120,
		"San Diego":     18,
	}
	rounds, err := PlanRounds(counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(rounds))
	}
	// Training order: fewest classes first, all classes last.
	if len(rounds[0].Labels) >= len(rounds[len(rounds)-1].Labels) {
		t.Errorf("round order wrong: %d then %d classes",
			len(rounds[0].Labels), len(rounds[len(rounds)-1].Labels))
	}
	last := rounds[len(rounds)-1]
	if len(last.Labels) != 4 || last.PerClass != 18 {
		t.Errorf("final round = %+v, want all 4 classes at 18/class", last)
	}
	first := rounds[0]
	if len(first.Labels) != 2 || first.PerClass != 232 {
		t.Errorf("first round = %+v, want top-2 classes at 232/class", first)
	}
	// The biggest class appears in every round.
	for i, r := range rounds {
		found := false
		for _, l := range r.Labels {
			if l == "Washington DC" {
				found = true
			}
		}
		if !found {
			t.Errorf("round %d missing the largest class", i)
		}
	}
}

func TestPlanRoundsCapsRounds(t *testing.T) {
	// 10 classes with maxRounds 5 (paper's TM-3 schedule).
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		counts[string(rune('a'+i))] = (i + 1) * 50
	}
	rounds, err := PlanRounds(counts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 5 {
		t.Fatalf("rounds = %d, want 5", len(rounds))
	}
	// Class counts grow across training order and end at 10.
	prev := 0
	for _, r := range rounds {
		if len(r.Labels) < prev {
			t.Errorf("class count decreased: %d after %d", len(r.Labels), prev)
		}
		prev = len(r.Labels)
	}
	if prev != 10 {
		t.Errorf("final round has %d classes, want 10", prev)
	}
}

func TestPlanRoundsTwoClasses(t *testing.T) {
	rounds, err := PlanRounds(map[string]int{"a": 100, "b": 30}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1 (WDC case)", len(rounds))
	}
	if len(rounds[0].Labels) != 2 || rounds[0].PerClass != 30 {
		t.Errorf("round = %+v", rounds[0])
	}
}

func TestPlanRoundsValidation(t *testing.T) {
	if _, err := PlanRounds(map[string]int{"a": 1}, 3); err == nil {
		t.Error("single class accepted")
	}
	if _, err := PlanRounds(map[string]int{"a": 1, "b": 0}, 3); err == nil {
		t.Error("empty class accepted")
	}
	if _, err := PlanRounds(map[string]int{"a": 1, "b": 1}, 0); err == nil {
		t.Error("maxRounds 0 accepted")
	}
}

func TestTopConfusions(t *testing.T) {
	cm, err := NewConfusionMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = cm.Add(0, 1)
	}
	for i := 0; i < 3; i++ {
		_ = cm.Add(2, 0)
	}
	_ = cm.Add(1, 1) // diagonal, excluded

	top := cm.TopConfusions(10)
	if len(top) != 2 {
		t.Fatalf("confusions = %v", top)
	}
	if top[0] != (Confusion{Actual: 0, Predicted: 1, Count: 5}) {
		t.Errorf("top = %+v", top[0])
	}
	// n caps the list.
	if got := cm.TopConfusions(1); len(got) != 1 {
		t.Errorf("capped = %v", got)
	}
}

func TestCrossValidateConfusionPools(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	centers := [][2]float64{{1, 5}, {5, 1}}
	for c := 0; c < 2; c++ {
		for i := 0; i < 20; i++ {
			x = append(x, []float64{
				centers[c][0] + rng.NormFloat64()*0.3,
				centers[c][1] + rng.NormFloat64()*0.3,
			})
			y = append(y, c)
		}
	}
	cm, err := CrossValidateConfusion(csr(t, x), y, 2, 4, 7, func() (ml.Classifier, error) {
		return svm.New(svm.DefaultConfig(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 40 {
		t.Errorf("pooled total = %d, want 40 (every sample scored once)", cm.Total())
	}
	if cm.Accuracy() < 0.95 {
		t.Errorf("pooled accuracy = %f", cm.Accuracy())
	}
}
