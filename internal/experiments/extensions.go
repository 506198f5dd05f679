package experiments

import (
	"fmt"

	"elevprivacy"
	"elevprivacy/internal/dataset"
	"elevprivacy/internal/defense"
	"elevprivacy/internal/eval"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/spectral"
	"elevprivacy/internal/textrep"
)

// ExtensionDefenses evaluates the countermeasures the paper's conclusion
// proposes: for each defense, the TM-3 attack accuracy after applying it
// and the utility cost (relative error of the shared total gain).
func ExtensionDefenses(cfg Config) (*Table, error) {
	base, err := cfg.ablationDataset() // balanced 10-class TM-3
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Extension E1",
		Title:  "Defense trade-off: TM-3 MLP accuracy (%) vs utility cost",
		Header: []string{"defense", "attack accuracy", "gain error %", "chance"},
		Notes: []string{
			"the paper's conclusion proposes sharing route statistics instead of profiles",
			"zero-baseline and summary-stats remove absolute altitude, the attack's main signal",
		},
	}
	defenses := []defense.Defense{
		defense.Noop{},
		defense.GaussianNoise{SigmaMeters: 2},
		defense.GaussianNoise{SigmaMeters: 8},
		defense.Quantizer{StepMeters: 10},
		defense.Quantizer{StepMeters: 50},
		defense.ZeroBaseline{},
		defense.SummaryStats{},
	}
	mlpCfg := cfg.textAttackConfig(elevprivacy.ClassifierMLP)
	chance := pct(1.0 / float64(len(base.Labels())))
	for _, def := range defenses {
		defended := defense.ApplyToDataset((*dataset.Dataset)(base), def, cfg.Seed+11)
		m, err := elevprivacy.CrossValidateText((*elevprivacy.Dataset)(defended), mlpCfg, cfg.Folds10)
		if err != nil {
			return nil, fmt.Errorf("experiments: defense %s: %w", def.Name(), err)
		}
		gainErr, err := defense.GainError((*dataset.Dataset)(base), defended, def)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			def.Name(), pct(m.Accuracy), pct(gainErr), chance,
		})
	}
	return t, nil
}

// ExtensionSpectralBaseline reproduces the comparison the paper's abstract
// summarizes: "establishing that simple features of elevation profiles,
// e.g., spectral features, are insufficient". The pure spectral baseline
// is mean-invariant and collapses; the paper's representations win.
func ExtensionSpectralBaseline(cfg Config) (*Table, error) {
	d, err := cfg.ablationDataset()
	if err != nil {
		return nil, err
	}
	signals := make([][]float64, 0, d.Len())
	labelNames := make([]string, 0, d.Len())
	for i := range d.Samples {
		signals = append(signals, d.Samples[i].Elevations)
		labelNames = append(labelNames, d.Samples[i].Label)
	}
	enc, err := ml.NewLabelEncoder(labelNames)
	if err != nil {
		return nil, err
	}
	y, err := enc.EncodeAll(labelNames)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Extension E2",
		Title:  "Spectral baseline vs the paper's representations (TM-3, MLP, 10 classes)",
		Header: []string{"features", "accuracy", "recall", "F1"},
		Notes: []string{
			"pure spectral features are invariant to absolute altitude and fail, which is",
			"why the paper devises the text-like and image-like representations",
		},
	}

	spectralCV := func(name string, fcfg spectral.FeatureConfig) error {
		x, err := spectral.FeaturesAll(signals, fcfg)
		if err != nil {
			return err
		}
		m, err := eval.CrossValidateSparse(linalg.SparseFromDense(x), y, enc.Len(), cfg.Folds10, cfg.Seed, func() (ml.Classifier, error) {
			c := mlp.DefaultConfig(enc.Len())
			c.Seed = cfg.Seed
			return mlp.New(c)
		})
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{name, pct(m.Accuracy), pct(m.Recall), pct(m.F1)})
		return nil
	}

	if err := spectralCV("spectral (pure)", spectral.DefaultFeatureConfig()); err != nil {
		return nil, fmt.Errorf("experiments: spectral baseline: %w", err)
	}
	withStats := spectral.DefaultFeatureConfig()
	withStats.IncludeStats = true
	if err := spectralCV("spectral + stats", withStats); err != nil {
		return nil, fmt.Errorf("experiments: spectral+stats: %w", err)
	}

	m, err := elevprivacy.CrossValidateText(d, cfg.textAttackConfig(elevprivacy.ClassifierMLP), cfg.Folds10)
	if err != nil {
		return nil, fmt.Errorf("experiments: text comparison: %w", err)
	}
	t.Rows = append(t.Rows, []string{"text-like n-grams (paper)", pct(m.Accuracy), pct(m.Recall), pct(m.F1)})
	return t, nil
}

// ExtensionConfusionAnalysis pools the TM-3 cross-validation confusion
// matrix and reports which city pairs the attack actually confuses —
// flat coastal cities blur together while mountain cities stand alone.
func ExtensionConfusionAnalysis(cfg Config) (*Table, error) {
	d, err := cfg.ablationDataset()
	if err != nil {
		return nil, err
	}
	signals := make([][]float64, 0, d.Len())
	labelNames := make([]string, 0, d.Len())
	for i := range d.Samples {
		signals = append(signals, d.Samples[i].Elevations)
		labelNames = append(labelNames, d.Samples[i].Label)
	}
	enc, err := ml.NewLabelEncoder(labelNames)
	if err != nil {
		return nil, err
	}
	y, err := enc.EncodeAll(labelNames)
	if err != nil {
		return nil, err
	}

	tc := cfg.textAttackConfig(elevprivacy.ClassifierMLP)
	pipe, err := textrep.NewPipeline(signals, textrep.PipelineConfig{
		Discretizer:  textrep.FloorDiscretizer,
		NGram:        tc.NGram,
		MinFrequency: tc.MinFrequency,
		MaxFeatures:  tc.MaxFeatures,
	})
	if err != nil {
		return nil, err
	}
	cm, err := eval.CrossValidateConfusion(pipe.FeaturesAllSparse(signals), y, enc.Len(), cfg.Folds10, cfg.Seed,
		func() (ml.Classifier, error) {
			c := mlp.DefaultConfig(enc.Len())
			c.Seed = cfg.Seed
			return mlp.New(c)
		})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Extension E3",
		Title:  "TM-3 confusion analysis: most-confused city pairs (MLP, pooled CV)",
		Header: []string{"actual", "predicted as", "count", "share of actual %"},
		Notes: []string{
			fmt.Sprintf("pooled accuracy %.2f%% over %d predictions", cm.Accuracy()*100, cm.Total()),
			"flat coastal cities are mutually confusable; distinctive terrains are not",
		},
	}
	counts := d.CountByLabel()
	for _, conf := range cm.TopConfusions(8) {
		actual, err := enc.Decode(conf.Actual)
		if err != nil {
			return nil, err
		}
		predicted, err := enc.Decode(conf.Predicted)
		if err != nil {
			return nil, err
		}
		share := float64(conf.Count) / float64(counts[actual])
		t.Rows = append(t.Rows, []string{
			actual, predicted, fmt.Sprintf("%d", conf.Count), pct(share),
		})
	}
	return t, nil
}
