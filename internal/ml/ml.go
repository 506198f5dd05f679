// Package ml defines the classifier contract shared by the SVM, random
// forest, and MLP text classifiers, plus the label encoding used to map
// class names onto model outputs (the CNN image classifier shares the
// encoding and the model file format, not the contract).
package ml

import (
	"fmt"
	"sort"

	"elevprivacy/internal/ml/linalg"
)

// Classifier is a multi-class model over CSR feature batches — the one
// format of the text attacks' bag-of-words features, which are >95%
// zeros. Training and scoring touch stored nonzeros only; a model that
// needs dense rows (the forest) densifies inside its own methods.
type Classifier interface {
	// FitSparse trains on X (n×d) with integer class labels y in
	// [0, classes). Every fit starts fresh: refitting a used model is
	// bit-identical to fitting a new one.
	FitSparse(x *linalg.SparseMatrix, y []int) error
	// PredictBatchSparse returns the most likely class for every row of
	// x; a single sample is a batch of one.
	PredictBatchSparse(x *linalg.SparseMatrix) ([]int, error)
}

// ValidateSparseTrainingSet performs the shape checks sparse training
// needs: non-empty X, matching y, labels within [0, classes). Row
// dimensionality is uniform by CSR construction.
func ValidateSparseTrainingSet(x *linalg.SparseMatrix, y []int, classes int) error {
	if x == nil || x.Rows == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if x.Rows != len(y) {
		return fmt.Errorf("ml: %d samples but %d labels", x.Rows, len(y))
	}
	if classes < 2 {
		return fmt.Errorf("ml: need >= 2 classes, got %d", classes)
	}
	if x.Cols == 0 {
		return fmt.Errorf("ml: zero-dimensional features")
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return fmt.Errorf("ml: label %d of sample %d outside [0,%d)", label, i, classes)
		}
	}
	return nil
}

// ValidateTrainingSet performs the shape checks of training on dense rows:
// non-empty X with consistent dimensionality, matching y, labels within
// [0, classes).
func ValidateTrainingSet(x [][]float64, y []int, classes int) (dim int, err error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("ml: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d samples but %d labels", len(x), len(y))
	}
	if classes < 2 {
		return 0, fmt.Errorf("ml: need >= 2 classes, got %d", classes)
	}
	dim = len(x[0])
	if dim == 0 {
		return 0, fmt.Errorf("ml: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != dim {
			return 0, fmt.Errorf("ml: sample %d has dim %d, want %d", i, len(row), dim)
		}
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return 0, fmt.Errorf("ml: label %d of sample %d outside [0,%d)", label, i, classes)
		}
	}
	return dim, nil
}

// LabelEncoder maps string class names to contiguous integer indices in
// sorted-name order.
type LabelEncoder struct {
	toIndex map[string]int
	names   []string
}

// NewLabelEncoder builds an encoder over the distinct names present.
func NewLabelEncoder(names []string) (*LabelEncoder, error) {
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if len(seen) < 2 {
		return nil, fmt.Errorf("ml: need >= 2 distinct labels, got %d", len(seen))
	}
	uniq := make([]string, 0, len(seen))
	for n := range seen {
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)

	e := &LabelEncoder{toIndex: make(map[string]int, len(uniq)), names: uniq}
	for i, n := range uniq {
		e.toIndex[n] = i
	}
	return e, nil
}

// Encode maps a class name to its index.
func (e *LabelEncoder) Encode(name string) (int, error) {
	i, ok := e.toIndex[name]
	if !ok {
		return 0, fmt.Errorf("ml: unknown label %q", name)
	}
	return i, nil
}

// EncodeAll maps a batch of names.
func (e *LabelEncoder) EncodeAll(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx, err := e.Encode(n)
		if err != nil {
			return nil, err
		}
		out[i] = idx
	}
	return out, nil
}

// Decode maps an index back to its class name.
func (e *LabelEncoder) Decode(i int) (string, error) {
	if i < 0 || i >= len(e.names) {
		return "", fmt.Errorf("ml: label index %d outside [0,%d)", i, len(e.names))
	}
	return e.names[i], nil
}

// Len returns the class count.
func (e *LabelEncoder) Len() int { return len(e.names) }

// Names returns the class names in index order. The slice is a copy.
func (e *LabelEncoder) Names() []string {
	out := make([]string, len(e.names))
	copy(out, e.names)
	return out
}
