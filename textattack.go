package elevprivacy

import (
	"fmt"

	"elevprivacy/internal/eval"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/forest"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/ml/svm"
	"elevprivacy/internal/textrep"
)

// ClassifierKind selects the model behind a text-like attack.
type ClassifierKind string

// The paper's three text-feature classifiers.
const (
	ClassifierSVM          ClassifierKind = "svm"
	ClassifierRandomForest ClassifierKind = "rfc"
	ClassifierMLP          ClassifierKind = "mlp"
)

// TextAttackConfig configures a text-like (n-gram bag-of-words) attack.
type TextAttackConfig struct {
	// Classifier picks SVM, RFC, or MLP.
	Classifier ClassifierKind
	// NGram is the n-gram order (the paper fixes n = 8).
	NGram int
	// Precision selects the discretizer: 0 applies the paper's ⌊e⌋ (used
	// for the user-specific dataset), d > 0 applies ⌊e·10^d⌋/10^d (the
	// paper uses d = 3 for mined datasets).
	Precision int
	// MaxFeatures bounds the vocabulary after term-frequency selection.
	MaxFeatures int
	// MinFrequency drops n-grams rarer than this across the corpus.
	MinFrequency int
	// ForestTrees overrides the random forest's ensemble size when
	// positive (paper default: 100). Ignored by the other classifiers.
	ForestTrees int
	// Float32 trains the MLP through the reduced-precision kernel path
	// (see mlp.Config.Float32). Ignored by the other classifiers, whose
	// training is float64-only.
	Float32 bool
	// Seed drives classifier randomness.
	Seed int64
}

// DefaultTextAttackConfig returns the paper's evaluation settings.
func DefaultTextAttackConfig(kind ClassifierKind) TextAttackConfig {
	return TextAttackConfig{
		Classifier:   kind,
		NGram:        8,
		Precision:    0,
		MaxFeatures:  4096,
		MinFrequency: 2,
		Seed:         1,
	}
}

func (c TextAttackConfig) pipeline() textrep.PipelineConfig {
	// Precision (not a raw Discretizer) selects the bucketing so trained
	// attacks can be persisted and reloaded.
	return textrep.PipelineConfig{
		Precision:    c.Precision,
		Alphabet:     textrep.DefaultAlphabet,
		NGram:        c.NGram,
		MinFrequency: c.MinFrequency,
		MaxFeatures:  c.MaxFeatures,
	}
}

// newClassifier instantiates the configured model.
func (c TextAttackConfig) newClassifier(classes int) (ml.Classifier, error) {
	switch c.Classifier {
	case ClassifierSVM:
		cfg := svm.DefaultConfig(classes)
		cfg.Seed = c.Seed
		return svm.New(cfg)
	case ClassifierRandomForest:
		cfg := forest.DefaultConfig(classes)
		cfg.Seed = c.Seed
		if c.ForestTrees > 0 {
			cfg.Trees = c.ForestTrees
		}
		return forest.New(cfg)
	case ClassifierMLP:
		cfg := mlp.DefaultConfig(classes)
		cfg.Seed = c.Seed
		cfg.Float32 = c.Float32
		return mlp.New(cfg)
	default:
		return nil, fmt.Errorf("elevprivacy: unknown classifier %q", c.Classifier)
	}
}

// TextAttack is a trained text-like location-inference attack.
type TextAttack struct {
	pipeline *textrep.Pipeline
	labels   *ml.LabelEncoder
	model    ml.Classifier
}

// TrainTextAttack builds the text representation over the dataset and
// trains the configured classifier on all samples.
func TrainTextAttack(d *Dataset, cfg TextAttackConfig) (*TextAttack, error) {
	signals, labelNames := signalsAndLabels(d)
	if len(signals) == 0 {
		return nil, fmt.Errorf("elevprivacy: empty dataset")
	}

	pipe, err := textrep.NewPipeline(signals, cfg.pipeline())
	if err != nil {
		return nil, fmt.Errorf("elevprivacy: text pipeline: %w", err)
	}
	enc, err := ml.NewLabelEncoder(labelNames)
	if err != nil {
		return nil, fmt.Errorf("elevprivacy: labels: %w", err)
	}
	y, err := enc.EncodeAll(labelNames)
	if err != nil {
		return nil, err
	}

	model, err := cfg.newClassifier(enc.Len())
	if err != nil {
		return nil, err
	}
	if err := model.FitSparse(pipe.FeaturesAllSparse(signals), y); err != nil {
		return nil, fmt.Errorf("elevprivacy: training: %w", err)
	}
	return &TextAttack{pipeline: pipe, labels: enc, model: model}, nil
}

// PredictLocation infers the location label for one elevation profile: a
// batch of one through PredictLocations.
func (a *TextAttack) PredictLocation(elevations []float64) (string, error) {
	if len(elevations) == 0 {
		return "", fmt.Errorf("elevprivacy: empty elevation profile")
	}
	labels, err := a.PredictLocations([][]float64{elevations})
	if err != nil {
		return "", err
	}
	return labels[0], nil
}

// PredictLocations infers the location label for a batch of elevation
// profiles in one pass — the serving-path shape for high-traffic
// inference. Profiles are tokenized and featurized straight into a CSR
// matrix and scored with one PredictBatchSparse call; every row's label
// depends only on its own profile.
func (a *TextAttack) PredictLocations(profiles [][]float64) ([]string, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("elevprivacy: empty batch")
	}
	for i, p := range profiles {
		if len(p) == 0 {
			return nil, fmt.Errorf("elevprivacy: empty elevation profile %d", i)
		}
	}
	preds, err := a.model.PredictBatchSparse(a.pipeline.FeaturesAllSparse(profiles))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(preds))
	for i, idx := range preds {
		if out[i], err = a.labels.Decode(idx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Labels returns the class names the attack can predict.
func (a *TextAttack) Labels() []string { return a.labels.Names() }

// CrossValidateText evaluates the text-like attack with stratified k-fold
// cross-validation, the paper's evaluation protocol. The representation is
// built over the full dataset (as the paper builds its vocabulary over the
// whole corpus); each fold trains a fresh classifier.
func CrossValidateText(d *Dataset, cfg TextAttackConfig, folds int) (Metrics, error) {
	signals, labelNames := signalsAndLabels(d)
	if len(signals) == 0 {
		return Metrics{}, fmt.Errorf("elevprivacy: empty dataset")
	}
	pipe, err := textrep.NewPipeline(signals, cfg.pipeline())
	if err != nil {
		return Metrics{}, fmt.Errorf("elevprivacy: text pipeline: %w", err)
	}
	enc, err := ml.NewLabelEncoder(labelNames)
	if err != nil {
		return Metrics{}, fmt.Errorf("elevprivacy: labels: %w", err)
	}
	y, err := enc.EncodeAll(labelNames)
	if err != nil {
		return Metrics{}, err
	}
	// Featurize once into CSR form; every fold gathers its rows from it.
	return eval.CrossValidateSparse(pipe.FeaturesAllSparse(signals), y, enc.Len(), folds, cfg.Seed,
		func() (ml.Classifier, error) { return cfg.newClassifier(enc.Len()) })
}

// signalsAndLabels splits a dataset into parallel slices.
func signalsAndLabels(d *Dataset) (signals [][]float64, labels []string) {
	for i := range d.Samples {
		signals = append(signals, d.Samples[i].Elevations)
		labels = append(labels, d.Samples[i].Label)
	}
	return signals, labels
}
