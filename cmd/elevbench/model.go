package main

import (
	"context"
	"fmt"
	"strconv"

	"elevprivacy"
	"elevprivacy/internal/eval"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/textrep"
)

// attackConfig is the TM-1 attack every workload trains: the paper's MLP
// text attack with its default settings.
func attackConfig() elevprivacy.TextAttackConfig {
	return elevprivacy.DefaultTextAttackConfig(elevprivacy.ClassifierMLP)
}

// The traced runs rebuild the attack from its parts — text pipeline, label
// encoder, MLP — exactly as elevprivacy.TrainTextAttack and
// CrossValidateText assemble them, so spans can time each layer apart.
// Every traced output is checked against the public functions' output.

func pipelineConfig(cfg elevprivacy.TextAttackConfig) textrep.PipelineConfig {
	return textrep.PipelineConfig{
		Precision:    cfg.Precision,
		Alphabet:     textrep.DefaultAlphabet,
		NGram:        cfg.NGram,
		MinFrequency: cfg.MinFrequency,
		MaxFeatures:  cfg.MaxFeatures,
	}
}

func newMLP(cfg elevprivacy.TextAttackConfig, classes int) (*mlp.MLP, error) {
	c := mlp.DefaultConfig(classes)
	c.Seed = cfg.Seed
	c.Float32 = cfg.Float32
	return mlp.New(c)
}

func signalsAndLabels(d *elevprivacy.Dataset) (signals [][]float64, labels []string) {
	for i := range d.Samples {
		signals = append(signals, d.Samples[i].Elevations)
		labels = append(labels, d.Samples[i].Label)
	}
	return signals, labels
}

// textParts is the shared front half of training and cross-validation: the
// text pipeline built over the dataset and the encoded labels.
type textParts struct {
	signals [][]float64
	pipe    *textrep.Pipeline
	labels  *ml.LabelEncoder
	y       []int
}

func buildTextParts(ctx context.Context, d *elevprivacy.Dataset, cfg elevprivacy.TextAttackConfig) (*textParts, error) {
	signals, names := signalsAndLabels(d)
	_, span := obs.StartSpan(ctx, "textrep.build")
	pipe, err := textrep.NewPipeline(signals, pipelineConfig(cfg))
	span.End()
	if err != nil {
		return nil, err
	}
	enc, err := ml.NewLabelEncoder(names)
	if err != nil {
		return nil, err
	}
	y, err := enc.EncodeAll(names)
	if err != nil {
		return nil, err
	}
	return &textParts{signals: signals, pipe: pipe, labels: enc, y: y}, nil
}

// textModel is a trained TM-1 attack held as its parts.
type textModel struct {
	pipe   *textrep.Pipeline
	labels *ml.LabelEncoder
	model  *mlp.MLP
}

// trainTextModel is TrainTextAttack with a span around each layer call.
func trainTextModel(ctx context.Context, d *elevprivacy.Dataset, cfg elevprivacy.TextAttackConfig) (*textModel, error) {
	parts, err := buildTextParts(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	model, err := newMLP(cfg, parts.labels.Len())
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "textrep.featurize")
	span.SetAttr("rows", strconv.Itoa(len(parts.signals)))
	x := parts.pipe.FeaturesAll(parts.signals).RowSlices()
	span.End()
	_, span = obs.StartSpan(ctx, "ml.fit_dense")
	err = model.Fit(x, parts.y)
	span.End()
	if err != nil {
		return nil, err
	}
	return &textModel{pipe: parts.pipe, labels: parts.labels, model: model}, nil
}

// predict is PredictLocations' sparse batch path with featurize and predict
// timed apart.
func (m *textModel) predict(ctx context.Context, profiles [][]float64) ([]string, error) {
	rows := strconv.Itoa(len(profiles))
	_, span := obs.StartSpan(ctx, "textrep.featurize")
	span.SetAttr("rows", rows)
	sp := m.pipe.FeaturesAllSparse(profiles)
	span.End()
	_, span = obs.StartSpan(ctx, "ml.predict")
	span.SetAttr("rows", rows)
	idx, err := m.model.PredictBatchSparse(sp)
	span.End()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(idx))
	for i, k := range idx {
		if out[i], err = m.labels.Decode(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crossValidateTraced is CrossValidateText with spans around the pipeline
// build, featurization, and every fold's fit and scoring call.
func crossValidateTraced(ctx context.Context, d *elevprivacy.Dataset, cfg elevprivacy.TextAttackConfig, folds int) (elevprivacy.Metrics, error) {
	parts, err := buildTextParts(ctx, d, cfg)
	if err != nil {
		return elevprivacy.Metrics{}, err
	}
	_, span := obs.StartSpan(ctx, "textrep.featurize")
	span.SetAttr("rows", strconv.Itoa(len(parts.signals)))
	sp := parts.pipe.FeaturesAllSparse(parts.signals)
	span.End()
	classes := parts.labels.Len()
	return eval.CrossValidateSparse(sp, parts.y, classes, folds, cfg.Seed, func() (ml.Classifier, error) {
		m, err := newMLP(cfg, classes)
		if err != nil {
			return nil, err
		}
		return &timedMLP{MLP: m, ctx: ctx}, nil
	})
}

// timedMLP is the classifier crossValidateTraced's factory returns. It
// embeds the model, so it implements exactly the interfaces the model
// does and cross-validation takes the same sparse paths.
type timedMLP struct {
	*mlp.MLP
	ctx context.Context
}

func (t *timedMLP) FitSparse(x *linalg.SparseMatrix, y []int) error {
	_, span := obs.StartSpan(t.ctx, "ml.fit_sparse")
	span.SetAttr("rows", strconv.Itoa(x.Rows))
	defer span.End()
	return t.MLP.FitSparse(x, y)
}

func (t *timedMLP) PredictBatchSparse(x *linalg.SparseMatrix) ([]int, error) {
	_, span := obs.StartSpan(t.ctx, "ml.predict")
	span.SetAttr("rows", strconv.Itoa(x.Rows))
	defer span.End()
	return t.MLP.PredictBatchSparse(x)
}

// sameMetrics compares two metric sets exactly; the paths are bit-exact.
func sameMetrics(a, b elevprivacy.Metrics) error {
	if a != b {
		return fmt.Errorf("%+v != %+v", a, b)
	}
	return nil
}
