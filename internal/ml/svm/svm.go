// Package svm implements a linear support vector machine trained with the
// Pegasos stochastic sub-gradient algorithm, extended to multi-class via
// one-vs-rest, matching the paper's "standard SVM" classifier on
// bag-of-words feature vectors.
package svm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/obs"
)

// Config tunes training.
type Config struct {
	// Classes is the number of classes.
	Classes int
	// Lambda is the regularization strength (Pegasos λ).
	Lambda float64
	// Epochs is the number of passes over the training set per binary
	// sub-problem.
	Epochs int
	// Seed drives the stochastic sampling.
	Seed int64
	// NormalizeL2, when true, L2-normalizes every input vector before
	// training and prediction — standard practice for bag-of-words
	// features and what makes the margin scale-free.
	NormalizeL2 bool
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig(classes int) Config {
	return Config{
		Classes:     classes,
		Lambda:      1e-2,
		Epochs:      60,
		Seed:        1,
		NormalizeL2: true,
	}
}

// SVM is a one-vs-rest linear SVM.
type SVM struct {
	cfg Config
	dim int
	// w row c and b[c] are the hyperplane of the class-c-vs-rest problem;
	// keeping all hyperplanes in one Classes×dim matrix makes batch
	// scoring a single affine kernel.
	w *linalg.Matrix
	b []float64
}

var _ ml.Classifier = (*SVM)(nil)

// New creates an untrained SVM.
func New(cfg Config) (*SVM, error) {
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("svm: need >= 2 classes, got %d", cfg.Classes)
	}
	if cfg.Lambda <= 0 {
		return nil, fmt.Errorf("svm: lambda must be positive, got %g", cfg.Lambda)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("svm: epochs must be >= 1, got %d", cfg.Epochs)
	}
	return &SVM{cfg: cfg}, nil
}

// FitSparse trains all one-vs-rest hyperplanes on a CSR feature batch:
// margins and hinge steps touch only stored nonzeros, in ascending column
// order, so the model is bit-identical to dense Pegasos on ToDense() of
// the same matrix (the skipped terms are exact-zero products, identity
// adds). The regularization shrink and the averaging accumulation stay
// dense (they act on w, not x). Binary sub-problems are independent and
// train concurrently; each uses its own seeded RNG, so the result is
// deterministic regardless of scheduling.
func (s *SVM) FitSparse(x *linalg.SparseMatrix, y []int) error {
	if err := ml.ValidateSparseTrainingSet(x, y, s.cfg.Classes); err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	s.dim = x.Cols
	if s.cfg.NormalizeL2 {
		x = normalizedSparse(x)
	}
	s.w = linalg.NewMatrix(s.cfg.Classes, s.dim)
	s.b = make([]float64, s.cfg.Classes)

	fitStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.Classes; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			s.b[c] = s.fitBinary(x, y, c, s.w.Row(c))
			classFitSeconds.ObserveSince(start)
		}(c)
	}
	wg.Wait()
	epochSeconds.ObserveSince(fitStart)
	return nil
}

// Training telemetry. The SVM has no epoch loop at this level — one Fit is
// one pass over the one-vs-rest problems — so the "epoch" histogram records
// whole fits and classFitSeconds the concurrent binary sub-problems.
var (
	epochSeconds    = obs.GetHistogram(`elevpriv_ml_epoch_seconds{model="svm"}`, nil)
	classFitSeconds = obs.GetHistogram(`elevpriv_ml_class_fit_seconds{model="svm"}`, nil)
)

// fitBinary runs averaged Pegasos for the class-c-vs-rest problem, writing
// the averaged weight vector into wOut and returning the intercept: the
// returned hyperplane is the average of the iterates over the second half
// of training, which substantially stabilizes the stochastic solution.
// The margin dot and the hinge step iterate stored nonzeros only.
func (s *SVM) fitBinary(x *linalg.SparseMatrix, y []int, c int, wOut []float64) float64 {
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(c)*7919))
	w := make([]float64, s.dim)
	avgW := make([]float64, s.dim)
	var b, avgB float64
	var averaged int

	n := x.Rows
	steps := s.cfg.Epochs * n
	burnIn := steps / 2
	for t := 1; t <= steps; t++ {
		i := rng.Intn(n)
		target := -1.0
		if y[i] == c {
			target = 1.0
		}
		eta := 1 / (s.cfg.Lambda * float64(t))

		cols, vals := x.RowNZ(i)
		margin := target * (linalg.SparseDot(cols, vals, w) + b)
		// Shrink from regularization, then step on hinge violation.
		linalg.Scale(w, 1-eta*s.cfg.Lambda)
		if margin < 1 {
			linalg.SparseAxpy(w, cols, vals, eta*target)
			b += eta * target * 0.01 // unregularized intercept, damped
		}
		if t > burnIn {
			linalg.Axpy(avgW, w, 1)
			avgB += b
			averaged++
		}
	}
	if averaged > 0 {
		linalg.Scale(avgW, 1/float64(averaged))
		copy(wOut, avgW)
		return avgB / float64(averaged)
	}
	copy(wOut, w)
	return b
}

// ScoresSparse computes the decision-value matrix for a CSR feature batch
// through the sparse affine kernel, skipping the >95% of multiplies that
// hit zeros: row i holds the per-class hyperplane scores of sample i.
// Row norms and dots accumulate in ascending column order, so scores
// match a dense evaluation of the same rows bit for bit.
func (s *SVM) ScoresSparse(x *linalg.SparseMatrix) (*linalg.Matrix, error) {
	if s.w == nil {
		return nil, fmt.Errorf("svm: model not fitted")
	}
	if x.Cols != s.dim {
		return nil, fmt.Errorf("svm: feature dim %d, model expects %d", x.Cols, s.dim)
	}
	if s.cfg.NormalizeL2 {
		x = normalizedSparse(x)
	}
	return linalg.SparseAffineT(x, s.w, s.b), nil
}

// PredictBatchSparse returns the predicted class for every row of a CSR
// feature batch.
func (s *SVM) PredictBatchSparse(x *linalg.SparseMatrix) ([]int, error) {
	scores, err := s.ScoresSparse(x)
	if err != nil {
		return nil, err
	}
	return linalg.ArgMaxRows(scores), nil
}

// normalizedSparse returns x with unit-L2 rows (zero rows pass through
// unchanged), sharing the row structure and scaling only the values. The
// norm accumulates over the nonzeros in ascending column order — bitwise
// the dense Norm2 of the scattered row, whose zero terms add exact +0.0.
func normalizedSparse(x *linalg.SparseMatrix) *linalg.SparseMatrix {
	out := &linalg.SparseMatrix{
		Rows:   x.Rows,
		Cols:   x.Cols,
		RowPtr: x.RowPtr,
		ColIdx: x.ColIdx,
		Val:    make([]float64, len(x.Val)),
	}
	for i := 0; i < x.Rows; i++ {
		_, vals := x.RowNZ(i)
		var sq float64
		for _, v := range vals {
			sq += v * v
		}
		n := math.Sqrt(sq)
		lo := x.RowPtr[i]
		if n == 0 {
			copy(out.Val[lo:lo+len(vals)], vals)
			continue
		}
		for k, v := range vals {
			out.Val[lo+k] = v / n
		}
	}
	return out
}

// savedConfig is the persisted SVM description.
type savedConfig struct {
	Config Config `json:"config"`
	Dim    int    `json:"dim"`
}

// Save serializes the trained hyperplanes: one weight block per class plus
// a final intercept block.
func (s *SVM) Save(w io.Writer) error {
	if s.w == nil {
		return fmt.Errorf("svm: model not fitted")
	}
	cfgJSON, err := json.Marshal(savedConfig{Config: s.cfg, Dim: s.dim})
	if err != nil {
		return fmt.Errorf("svm: marshaling config: %w", err)
	}
	blocks := make([][]float64, 0, s.cfg.Classes+1)
	blocks = append(blocks, ml.RowBlocks(s.w)...)
	blocks = append(blocks, s.b)
	return ml.WriteModel(w, ml.Header{Kind: "svm", Config: cfgJSON}, blocks...)
}

// Load reconstructs a saved SVM.
func Load(r io.Reader) (*SVM, error) {
	h, blocks, err := ml.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if h.Kind != "svm" {
		return nil, fmt.Errorf("%w: svm: file holds a %q model", ml.ErrMalformedModel, h.Kind)
	}
	var sc savedConfig
	if err := json.Unmarshal(h.Config, &sc); err != nil {
		return nil, fmt.Errorf("%w: svm: parsing config: %v", ml.ErrMalformedModel, err)
	}
	s, err := New(sc.Config)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ml.ErrMalformedModel, err)
	}
	if len(blocks) != sc.Config.Classes+1 {
		return nil, fmt.Errorf("%w: svm: %d blocks for %d classes", ml.ErrMalformedModel, len(blocks), sc.Config.Classes)
	}
	s.dim = sc.Dim
	w, err := ml.MatrixFromBlocks(blocks[:sc.Config.Classes], sc.Dim)
	if err != nil {
		return nil, fmt.Errorf("svm: weights: %w", err)
	}
	s.w = w
	b := blocks[sc.Config.Classes]
	if len(b) != sc.Config.Classes {
		return nil, fmt.Errorf("%w: svm: intercept block has %d values, want %d", ml.ErrMalformedModel, len(b), sc.Config.Classes)
	}
	s.b = b
	return s, nil
}
