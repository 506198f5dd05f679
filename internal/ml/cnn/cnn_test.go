package cnn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml"
)

// syntheticImages builds class-distinguishable images: class c fills a
// c-dependent quadrant with bright pixels plus noise elsewhere.
func syntheticImages(classes, perClass int, seed int64) ([]*imagerep.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	var images []*imagerep.Image
	var labels []int
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			im := imagerep.NewImage(3, 32, 32)
			// Noise floor.
			for k := 0; k < 50; k++ {
				im.Set(rng.Intn(3), rng.Intn(32), rng.Intn(32), rng.Float64()*0.3)
			}
			// Class quadrant: bright block.
			y0 := (c % 2) * 16
			x0 := ((c / 2) % 2) * 16
			for y := y0; y < y0+16; y++ {
				for x := x0; x < x0+16; x++ {
					if (y+x)%2 == 0 {
						im.Set(c%3, y, x, 0.8+rng.Float64()*0.2)
					}
				}
			}
			images = append(images, im)
			labels = append(labels, c)
		}
	}
	return images, labels
}

func fastConfig(classes int) Config {
	cfg := DefaultConfig(classes)
	cfg.Conv1 = 4
	cfg.Conv2 = 8
	cfg.Epochs = 8
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Classes: 1, Conv1: 4, Conv2: 4, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Conv1: 0, Conv2: 4, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Conv1: 4, Conv2: 4, Epochs: 0, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Conv1: 4, Conv2: 4, Epochs: 1, BatchSize: 0, LearningRate: 0.1},
		{Classes: 2, Conv1: 4, Conv2: 4, Epochs: 1, BatchSize: 1, LearningRate: 0},
		{Classes: 2, Conv1: 4, Conv2: 4, InSize: 30, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Conv1: 4, Conv2: 4, Epochs: 1, BatchSize: 1, LearningRate: 0.1, ClassWeights: []float64{1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestLearnsQuadrantClasses(t *testing.T) {
	images, labels := syntheticImages(4, 12, 1)
	c, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(images, labels); err != nil {
		t.Fatal(err)
	}
	var correct int
	for i := range images {
		pred, err := c.Predict(images[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(images)); acc < 0.9 {
		t.Errorf("training accuracy = %f, want >= 0.9", acc)
	}
}

func TestGeneralizesToHeldOut(t *testing.T) {
	trainIm, trainY := syntheticImages(2, 20, 2)
	testIm, testY := syntheticImages(2, 8, 99) // fresh noise
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(trainIm, trainY); err != nil {
		t.Fatal(err)
	}
	var correct int
	for i := range testIm {
		pred, _ := c.Predict(testIm[i])
		if pred == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testIm)); acc < 0.85 {
		t.Errorf("held-out accuracy = %f", acc)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	images, labels := syntheticImages(2, 4, 3)
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(images, labels); err != nil {
		t.Fatal(err)
	}
	probs, err := c.Probabilities(images[0])
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probability %f", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %f", sum)
	}
}

func TestDeterministicTrainingAcrossParallelism(t *testing.T) {
	images, labels := syntheticImages(2, 8, 4)
	run := func() []float64 {
		c, err := New(fastConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.TrainEpochs(images, labels, 3); err != nil {
			t.Fatal(err)
		}
		probs, _ := c.Probabilities(images[0])
		return probs
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed CNN training diverges: %v vs %v", a, b)
		}
	}
}

func TestWeightedLossShiftsMinorityRecall(t *testing.T) {
	// Unbalanced: class 0 has 24 samples, class 1 only 4. Weighted loss
	// should lift minority-class predictions relative to unweighted.
	rng := rand.New(rand.NewSource(5))
	build := func() ([]*imagerep.Image, []int) {
		var images []*imagerep.Image
		var labels []int
		maj, _ := syntheticImages(1, 24, 6)
		images = append(images, maj...)
		for range maj {
			labels = append(labels, 0)
		}
		for i := 0; i < 4; i++ {
			im := imagerep.NewImage(3, 32, 32)
			for y := 16; y < 32; y++ {
				for x := 0; x < 16; x++ {
					if (y+x)%2 == 0 {
						im.Set(1, y, x, 0.9)
					}
				}
			}
			for k := 0; k < 50; k++ {
				im.Set(rng.Intn(3), rng.Intn(32), rng.Intn(32), rng.Float64()*0.3)
			}
			images = append(images, im)
			labels = append(labels, 1)
		}
		return images, labels
	}

	images, labels := build()
	weights := []float64{1.0 / 24, 1.0 / 4}
	// Normalize to mean 1.
	mean := (weights[0] + weights[1]) / 2
	weights[0] /= mean
	weights[1] /= mean

	cfg := fastConfig(2)
	cfg.ClassWeights = weights
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(images, labels); err != nil {
		t.Fatal(err)
	}
	var minorityCorrect int
	for i := range images {
		if labels[i] != 1 {
			continue
		}
		if pred, _ := c.Predict(images[i]); pred == 1 {
			minorityCorrect++
		}
	}
	if minorityCorrect < 3 {
		t.Errorf("weighted loss recalled %d/4 minority samples", minorityCorrect)
	}
}

// TestRefitMatchesFresh pins the Fit contract shared by all four
// classifiers: Fit always reinitializes (parameters redrawn from cfg.Seed,
// Adam moments reset), so refitting a used model is bit-identical to
// fitting a fresh one. Warm starting is TrainEpochs's job, not Fit's.
func TestRefitMatchesFresh(t *testing.T) {
	images, labels := syntheticImages(2, 8, 6)
	refit, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := refit.Fit(images, labels); err != nil {
		t.Fatal(err)
	}
	if err := refit.Fit(images, labels); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Fit(images, labels); err != nil {
		t.Fatal(err)
	}
	for i := range images {
		want, err := fresh.Probabilities(images[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := refit.Probabilities(images[i])
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("image %d class %d: refit %g, fresh %g", i, k, got[k], want[k])
			}
		}
	}
}

func TestFineTuningWarmStart(t *testing.T) {
	// Train on classes {0,1} only, then fine-tune with all 3; the final
	// model must know all 3 classes.
	images3, labels3 := syntheticImages(3, 10, 7)
	var images2 []*imagerep.Image
	var labels2 []int
	for i := range images3 {
		if labels3[i] < 2 {
			images2 = append(images2, images3[i])
			labels2 = append(labels2, labels3[i])
		}
	}

	c, err := New(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images2, labels2, 6); err != nil {
		t.Fatal(err)
	}
	// Fine-tune with reduced learning rate on the full dataset.
	if err := c.SetLearningRate(7e-4); err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images3, labels3, 12); err != nil {
		t.Fatal(err)
	}

	perClass := map[int]int{}
	for i := range images3 {
		if pred, _ := c.Predict(images3[i]); pred == labels3[i] {
			perClass[labels3[i]]++
		}
	}
	for cls := 0; cls < 3; cls++ {
		if perClass[cls] < 7 {
			t.Errorf("class %d: %d/10 correct after fine-tuning", cls, perClass[cls])
		}
	}
}

func TestSetLearningRateValidation(t *testing.T) {
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLearningRate(0); err == nil {
		t.Error("lr 0 accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	im := imagerep.NewImage(3, 32, 32)
	if err := c.Fit([]*imagerep.Image{im}, []int{5}); err == nil {
		t.Error("bad label accepted")
	}
	small := imagerep.NewImage(3, 16, 16)
	if err := c.Fit([]*imagerep.Image{small}, []int{0}); err == nil {
		t.Error("wrong image shape accepted")
	}
	if err := c.Fit([]*imagerep.Image{nil}, []int{0}); err == nil {
		t.Error("nil image accepted")
	}
	if err := c.TrainEpochs([]*imagerep.Image{im}, []int{0}, 0); err == nil {
		t.Error("0 epochs accepted")
	}
}

func TestPoolForwardSelectsMax(t *testing.T) {
	in := make([]float64, 16) // 1 channel, 4x4
	in[0], in[1], in[4], in[5] = 1, 9, 3, 2
	in[2], in[3], in[6], in[7] = 0, 0, 0, 7
	out := make([]float64, 4)
	arg := make([]int, 4)
	poolForward(in, 1, 4, out, arg)
	if out[0] != 9 || arg[0] != 1 {
		t.Errorf("pool cell 0 = %f (arg %d)", out[0], arg[0])
	}
	if out[1] != 7 || arg[1] != 7 {
		t.Errorf("pool cell 1 = %f (arg %d)", out[1], arg[1])
	}
}

func TestConvGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network: perturb one conv1 weight
	// and compare loss delta against the analytic gradient.
	cfg := Config{
		Classes: 2, InChannels: 1, InSize: 8,
		Conv1: 2, Conv2: 2,
		Epochs: 1, BatchSize: 1, LearningRate: 0.01, Seed: 11,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	im := imagerep.NewImage(1, 8, 8)
	rng := rand.New(rand.NewSource(12))
	for i := range im.Data {
		im.Data[i] = rng.Float64()
	}
	label := 1

	loss := func() float64 {
		s := c.newScratch()
		c.forward(im, s)
		return -math.Log(s.probs[label] + 1e-12)
	}

	grads := make([]float64, len(c.params))
	s := c.newScratch()
	c.backward(im, label, grads, s)

	const eps = 1e-5
	for _, pi := range []int{0, 3, c.w2 + 1, c.wf + 2, c.bf} {
		orig := c.params[pi]
		c.params[pi] = orig + eps
		up := loss()
		c.params[pi] = orig - eps
		down := loss()
		c.params[pi] = orig

		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-grads[pi]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("param %d: numeric grad %g vs analytic %g", pi, numeric, grads[pi])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	images, labels := syntheticImages(2, 6, 21)
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images, labels, 4); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range images {
		want, _ := c.Probabilities(im)
		got, err := back.Probabilities(im)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("image %d class %d: %f vs %f", i, k, got[k], want[k])
			}
		}
	}
	// The loaded model keeps training (fresh optimizer state).
	if err := back.TrainEpochs(images, labels, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	cfgJSON := []byte(`{}`)
	if err := ml.WriteModel(&buf, ml.Header{Kind: "mlp", Config: cfgJSON}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("mlp file loaded as cnn")
	}
}
