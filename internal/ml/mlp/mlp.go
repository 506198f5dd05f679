// Package mlp implements the paper's multi-layer perceptron: one
// 100-unit ReLU hidden layer with a softmax output, trained with
// cross-entropy loss and the Adam optimizer.
package mlp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/obs"
)

// Config tunes the network.
type Config struct {
	// Classes is the number of output classes.
	Classes int
	// Hidden is the hidden-layer width (paper: 100).
	Hidden int
	// Epochs is the number of training passes.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// LearningRate is Adam's step size.
	LearningRate float64
	// Seed drives initialization and shuffling.
	Seed int64
	// Float32 selects the reduced-precision training fast path: forward
	// and backward run through the cache-blocked float32 kernels against a
	// float32 shadow of the weights, and the optimizer is linalg.Adam32 —
	// float32 moments and reciprocal-multiply bias correction against
	// float64 master parameters (the master-copy split of Micikevicius et
	// al., arXiv:1710.03740). Roughly half the training memory traffic and
	// a quarter of the divider pressure in the optimizer step; results
	// track the float64 path within small tolerances rather than bit for
	// bit. Prediction always runs float64.
	Float32 bool
}

// DefaultConfig returns the experiment configuration.
func DefaultConfig(classes int) Config {
	return Config{
		Classes:      classes,
		Hidden:       100,
		Epochs:       30,
		BatchSize:    16,
		LearningRate: 1e-3,
		Seed:         1,
	}
}

// MLP is the network. Parameters live in one flat vector so a single Adam
// instance drives the whole model.
type MLP struct {
	cfg Config
	dim int

	params []float64
	adam   *linalg.Adam   // float64 path optimizer
	adam32 *linalg.Adam32 // float32 path optimizer (cfg.Float32)

	// Offsets into params.
	w1, b1, w2, b2 int
}

var _ ml.Classifier = (*MLP)(nil)

// New creates an untrained MLP.
func New(cfg Config) (*MLP, error) {
	switch {
	case cfg.Classes < 2:
		return nil, fmt.Errorf("mlp: need >= 2 classes, got %d", cfg.Classes)
	case cfg.Hidden < 1:
		return nil, fmt.Errorf("mlp: hidden width %d", cfg.Hidden)
	case cfg.Epochs < 1:
		return nil, fmt.Errorf("mlp: epochs %d", cfg.Epochs)
	case cfg.BatchSize < 1:
		return nil, fmt.Errorf("mlp: batch size %d", cfg.BatchSize)
	case cfg.LearningRate <= 0:
		return nil, fmt.Errorf("mlp: learning rate %g", cfg.LearningRate)
	}
	return &MLP{cfg: cfg}, nil
}

// init allocates and He-initializes parameters for input dimension d.
func (m *MLP) init(d int, rng *rand.Rand) error {
	m.dim = d
	h, k := m.cfg.Hidden, m.cfg.Classes

	m.w1 = 0
	m.b1 = h * d
	m.w2 = m.b1 + h
	m.b2 = m.w2 + k*h
	m.params = make([]float64, m.b2+k)

	scale1 := math.Sqrt(2 / float64(d))
	for i := 0; i < h*d; i++ {
		m.params[m.w1+i] = rng.NormFloat64() * scale1
	}
	scale2 := math.Sqrt(2 / float64(h))
	for i := 0; i < k*h; i++ {
		m.params[m.w2+i] = rng.NormFloat64() * scale2
	}

	if m.cfg.Float32 {
		adam32, err := linalg.NewAdam32(len(m.params), m.cfg.LearningRate)
		if err != nil {
			return err
		}
		m.adam32, m.adam = adam32, nil
		return nil
	}
	adam, err := linalg.NewAdam(len(m.params), m.cfg.LearningRate)
	if err != nil {
		return err
	}
	m.adam, m.adam32 = adam, nil
	return nil
}

// Fit trains on dense feature rows: it validates them, converts them to
// CSR, and calls FitSparse, so the trained model is the one FitSparse
// produces on the same logical matrix.
func (m *MLP) Fit(x [][]float64, y []int) error {
	if _, err := ml.ValidateTrainingSet(x, y, m.cfg.Classes); err != nil {
		return fmt.Errorf("mlp: %w", err)
	}
	xm, err := linalg.FromRows(x)
	if err != nil {
		return fmt.Errorf("mlp: %w", err)
	}
	return m.FitSparse(linalg.SparseFromDense(xm), y)
}

// FitSparse trains the network with minibatch Adam on a CSR feature batch.
// The whole minibatch runs through the batched linalg kernels (train.go):
// the first-layer forward uses the sparse affine kernel and the
// first-layer weight gradient accumulates only over stored nonzeros, each
// gradient cell adding its per-sample terms in ascending sample order.
//
// FitSparse always reinitializes: parameters are redrawn from cfg.Seed and
// the Adam moments reset, so refitting a used model is bit-identical to
// fitting a fresh one. (An earlier version skipped init when the input
// dimension matched, silently resuming from stale weights and stale
// optimizer state.)
func (m *MLP) FitSparse(x *linalg.SparseMatrix, y []int) error {
	if err := ml.ValidateSparseTrainingSet(x, y, m.cfg.Classes); err != nil {
		return fmt.Errorf("mlp: %w", err)
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	if err := m.init(x.Cols, rng); err != nil {
		return err
	}
	if m.cfg.Float32 {
		return m.fit32(x, y, rng)
	}
	return m.fit64(x, y, rng)
}

// Training telemetry: per-epoch wall time and the Adam update's share of it
// (the optimizer step is the serial section between concurrent backward
// passes, so its histogram shows when parameter count becomes the bottleneck).
var (
	epochSeconds    = obs.GetHistogram(`elevpriv_ml_epoch_seconds{model="mlp"}`, nil)
	adamStepSeconds = obs.GetHistogram(`elevpriv_ml_adam_step_seconds{model="mlp"}`, nil)
)

// weight1 and weight2 view the flat parameter vector as the two layer
// matrices (shared storage, no copies).
func (m *MLP) weight1() *linalg.Matrix {
	return &linalg.Matrix{Rows: m.cfg.Hidden, Cols: m.dim, Data: m.params[m.w1:m.b1]}
}

func (m *MLP) weight2() *linalg.Matrix {
	return &linalg.Matrix{Rows: m.cfg.Classes, Cols: m.cfg.Hidden, Data: m.params[m.w2:m.b2]}
}

// ScoresSparse runs a CSR feature batch through the network as two affine
// kernels — H = ReLU(X·W1ᵀ + b1), P = softmax(H·W2ᵀ + b2) — and returns the
// n×Classes probability matrix. Only the first layer touches the input, so
// it alone uses the sparse kernel; the dense hidden activations flow
// through the second. Every row depends only on its own sample, so a batch
// of one scores exactly like the same row inside a larger batch.
func (m *MLP) ScoresSparse(x *linalg.SparseMatrix) (*linalg.Matrix, error) {
	if m.params == nil {
		return nil, fmt.Errorf("mlp: model not fitted")
	}
	if x.Cols != m.dim {
		return nil, fmt.Errorf("mlp: feature dim %d, model expects %d", x.Cols, m.dim)
	}
	hidden := linalg.SparseAffineT(x, m.weight1(), m.params[m.b1:m.w2])
	linalg.ReLURows(hidden)
	logits := linalg.AffineT(hidden, m.weight2(), m.params[m.b2:])
	linalg.SoftmaxRows(logits)
	return logits, nil
}

// PredictBatchSparse returns the most probable class for every row of a
// CSR feature batch.
func (m *MLP) PredictBatchSparse(x *linalg.SparseMatrix) ([]int, error) {
	probs, err := m.ScoresSparse(x)
	if err != nil {
		return nil, err
	}
	return linalg.ArgMaxRows(probs), nil
}

// savedConfig is the persisted MLP description: the architecture plus the
// input dimension fixed at first Fit.
type savedConfig struct {
	Config Config `json:"config"`
	Dim    int    `json:"dim"`
}

// Save serializes the trained network. Optimizer state is not saved.
func (m *MLP) Save(w io.Writer) error {
	if m.params == nil {
		return fmt.Errorf("mlp: model not fitted")
	}
	cfgJSON, err := json.Marshal(savedConfig{Config: m.cfg, Dim: m.dim})
	if err != nil {
		return fmt.Errorf("mlp: marshaling config: %w", err)
	}
	return ml.WriteModel(w, ml.Header{Kind: "mlp", Config: cfgJSON}, m.params)
}

// Load reconstructs a saved network. The header's dimensions are checked
// against the parameter block before anything is allocated from them.
func Load(r io.Reader) (*MLP, error) {
	h, blocks, err := ml.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if h.Kind != "mlp" {
		return nil, fmt.Errorf("%w: mlp: file holds a %q model", ml.ErrMalformedModel, h.Kind)
	}
	var sc savedConfig
	if err := json.Unmarshal(h.Config, &sc); err != nil {
		return nil, fmt.Errorf("%w: mlp: parsing config: %v", ml.ErrMalformedModel, err)
	}
	hid, k := sc.Config.Hidden, sc.Config.Classes
	n, err := ml.ParamCount([]int{hid, sc.Dim}, []int{hid}, []int{k, hid}, []int{k})
	if err != nil {
		return nil, err
	}
	if len(blocks) != 1 || len(blocks[0]) != n {
		return nil, fmt.Errorf("%w: mlp: parameter block mismatch (%d blocks)", ml.ErrMalformedModel, len(blocks))
	}
	m, err := New(sc.Config)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ml.ErrMalformedModel, err)
	}
	if err := m.init(sc.Dim, rand.New(rand.NewSource(sc.Config.Seed))); err != nil {
		return nil, err
	}
	copy(m.params, blocks[0])
	return m, nil
}
