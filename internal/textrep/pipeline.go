package textrep

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/obs"
)

// Pipeline bundles the full text-like preprocessing chain — discretize,
// encode, vectorize — behind one object, built once per dataset. The
// feature path is integer end to end and CSR is its only output format:
// signals encode to rank-id tokens (no string build), n-grams resolve
// through uint64 keys (no substring hashing), and batches come out as
// sparse matrices (no >95%-zero dense rows).
type Pipeline struct {
	encoder *Encoder
	vocab   *Vocabulary
	// precision records the discretizer for persistence: 0 = floor,
	// d > 0 = PrecisionDiscretizer(d).
	precision int
	// spare keeps the workers' vocabulary-sized tokenVectorizers for the
	// next batch call, at most GOMAXPROCS of them. Each stays bound to the
	// vocabulary it was built for, which UnmarshalJSON can replace.
	spareMu sync.Mutex
	spare   []*tokenVectorizer
}

// PipelineConfig configures NewPipeline.
type PipelineConfig struct {
	// Discretizer buckets raw elevations; when nil it is derived from
	// Precision (0 = FloorDiscretizer).
	Discretizer Discretizer
	// Precision selects the built-in discretizer family when Discretizer
	// is nil: 0 applies ⌊e⌋, d > 0 applies ⌊e·10^d⌋/10^d. Recorded for
	// persistence.
	Precision int
	// Alphabet for word encoding; DefaultAlphabet when empty.
	Alphabet string
	// NGram is the paper's n (8 in all experiments). Vocabulary spans
	// [1, NGram] orders.
	NGram int
	// MinFrequency and MaxFeatures forward to VocabConfig.
	MinFrequency int
	MaxFeatures  int
}

// NewPipeline builds the encoder and vocabulary over all signals. For a
// pipeline that should survive persistence, set cfg.Precision instead of a
// raw Discretizer.
func NewPipeline(signals [][]float64, cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Discretizer == nil {
		if cfg.Precision > 0 {
			cfg.Discretizer = PrecisionDiscretizer(cfg.Precision)
		} else {
			cfg.Discretizer = FloorDiscretizer
		}
	}
	if cfg.Alphabet == "" {
		cfg.Alphabet = DefaultAlphabet
	}
	if cfg.NGram < 1 {
		return nil, fmt.Errorf("textrep: NGram must be >= 1, got %d", cfg.NGram)
	}

	enc, err := BuildEncoder(signals, cfg.Discretizer, cfg.Alphabet)
	if err != nil {
		return nil, err
	}
	corpus := enc.EncodeAll(signals)
	vocab, err := BuildVocabulary(corpus, VocabConfig{
		WordSize:     enc.WordSize(),
		MinN:         1,
		MaxN:         cfg.NGram,
		MinFrequency: cfg.MinFrequency,
		MaxFeatures:  cfg.MaxFeatures,
	}, cfg.Alphabet, enc.UniqueValues())
	if err != nil {
		return nil, err
	}
	return &Pipeline{encoder: enc, vocab: vocab, precision: cfg.Precision}, nil
}

// forEachSignal partitions [0, n) into contiguous chunks and runs fn on
// each concurrently, handing every worker its own tokenVectorizer.
// Per-sample outputs depend only on the sample, so results are identical
// at any worker count.
func (p *Pipeline) forEachSignal(n int, fn func(lo, hi int, tv *tokenVectorizer)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		p.withVectorizer(func(tv *tokenVectorizer) { fn(0, n, tv) })
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.withVectorizer(func(tv *tokenVectorizer) { fn(lo, hi, tv) })
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// withVectorizer runs fn with a spare vectorizer for p's vocabulary, then
// keeps it for the next call: appendSparse leaves its counts and mask
// zeroed.
func (p *Pipeline) withVectorizer(fn func(tv *tokenVectorizer)) {
	var tv *tokenVectorizer
	p.spareMu.Lock()
	if n := len(p.spare); n > 0 {
		tv, p.spare = p.spare[n-1], p.spare[:n-1]
	}
	p.spareMu.Unlock()
	if tv == nil || tv.v != p.vocab {
		tv = p.vocab.newTokenVectorizer()
	}
	fn(tv)
	p.spareMu.Lock()
	if len(p.spare) < runtime.GOMAXPROCS(0) {
		p.spare = append(p.spare, tv)
	}
	p.spareMu.Unlock()
}

// Featurization telemetry: batch throughput (rows featurized and wall time
// per batch call).
var (
	featurizeRows    = obs.GetCounter("elevpriv_textrep_rows_featurized_total")
	featurizeSeconds = obs.GetHistogram("elevpriv_textrep_featurize_seconds", nil)
)

// FeaturesAll is FeaturesAllSparse materialized as a dense n×Dim matrix,
// for callers that need explicit zeros; every classifier consumes the CSR
// form directly.
func (p *Pipeline) FeaturesAll(signals [][]float64) *linalg.Matrix {
	return p.FeaturesAllSparse(signals).ToDense()
}

// FeaturesAllSparse converts a batch of signals into one CSR n×Dim feature
// matrix, each sample tokenized and vectorized straight into its row.
// Workers build contiguous row ranges into private buffers that are
// stitched in order, so the result is byte-identical at any GOMAXPROCS.
func (p *Pipeline) FeaturesAllSparse(signals [][]float64) *linalg.SparseMatrix {
	defer featurizeSeconds.ObserveSince(time.Now())
	featurizeRows.Add(int64(len(signals)))
	type shard struct {
		lo   int
		cols []int32
		vals []float64
		ends []int // per-row nnz end offsets within the shard
	}
	n := len(signals)
	out := linalg.NewSparseMatrix(max(n, 1), p.vocab.Size(), 0)
	out.Rows = n

	var mu sync.Mutex
	var shards []shard
	p.forEachSignal(n, func(lo, hi int, tv *tokenVectorizer) {
		sh := shard{lo: lo, ends: make([]int, 0, hi-lo)}
		var tokens []uint32
		for i := lo; i < hi; i++ {
			tokens = p.encoder.EncodeTokens(signals[i], tokens)
			sh.cols, sh.vals = tv.appendSparse(tokens, sh.cols, sh.vals)
			sh.ends = append(sh.ends, len(sh.vals))
		}
		mu.Lock()
		shards = append(shards, sh)
		mu.Unlock()
	})

	// Stitch shards in row order.
	slices.SortFunc(shards, func(a, b shard) int { return a.lo - b.lo })
	var nnz int
	for _, sh := range shards {
		nnz += len(sh.vals)
	}
	out.ColIdx = make([]int32, 0, nnz)
	out.Val = make([]float64, 0, nnz)
	for _, sh := range shards {
		prev := 0
		for _, end := range sh.ends {
			out.ColIdx = append(out.ColIdx, sh.cols[prev:end]...)
			out.Val = append(out.Val, sh.vals[prev:end]...)
			out.AppendRow()
			prev = end
		}
	}
	return out
}

// savedPipeline is the JSON form of a fitted pipeline. The discretizer is
// identified by its precision (0 = floor), the encoder by its sorted
// discrete values, and the vocabulary by its gram list; the token index is
// derived state and is rebuilt on load.
type savedPipeline struct {
	Precision int       `json:"precision"`
	Alphabet  string    `json:"alphabet"`
	WordSize  int       `json:"word_size"`
	Values    []float64 `json:"values"`
	MinN      int       `json:"min_n"`
	MaxN      int       `json:"max_n"`
	Grams     []string  `json:"grams"`
}

// MarshalJSON implements json.Marshaler for persistence of trained
// attacks. Only pipelines built from a Precision-derived discretizer
// round-trip exactly; a custom Discretizer is recorded as its Precision
// field (0 = floor).
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	return json.Marshal(savedPipeline{
		Precision: p.precision,
		Alphabet:  p.encoder.alphabet,
		WordSize:  p.encoder.wordSize,
		Values:    p.encoder.sortedVals,
		MinN:      p.vocab.minN,
		MaxN:      p.vocab.maxN,
		Grams:     p.vocab.grams,
	})
}

// ErrMalformedPipeline is wrapped by every error UnmarshalJSON returns, so
// callers can tell a corrupt or hostile saved pipeline (errors.Is) from an
// I/O failure.
var ErrMalformedPipeline = errors.New("textrep: malformed saved pipeline")

// UnmarshalJSON reconstructs a fitted pipeline, token index included. The
// input is untrusted: every size that drives an allocation — the word
// size, the n-gram order range — must agree with what the stored values
// and grams imply, so a few bytes cannot request gigabytes.
func (p *Pipeline) UnmarshalJSON(data []byte) error {
	var sp savedPipeline
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%w: %w", ErrMalformedPipeline, err)
	}
	if err := sp.validate(); err != nil {
		return fmt.Errorf("%w: %s", ErrMalformedPipeline, err)
	}
	disc := FloorDiscretizer
	if sp.Precision > 0 {
		disc = PrecisionDiscretizer(sp.Precision)
	}
	enc := newEncoder(disc, sp.Alphabet, sp.Values)
	vocab, err := newVocabulary(sp.Grams, sp.WordSize, sp.MinN, sp.MaxN, sp.Alphabet, len(sp.Values))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformedPipeline, err)
	}
	p.encoder = enc
	p.vocab = vocab
	p.precision = sp.Precision
	return nil
}

// validate checks the saved fields against each other before anything is
// built from them.
func (sp *savedPipeline) validate() error {
	switch {
	case len(sp.Values) == 0 || len(sp.Grams) == 0:
		return errors.New("no values or no grams")
	case len(sp.Alphabet) < 2:
		return fmt.Errorf("alphabet of %d letters", len(sp.Alphabet))
	case sp.WordSize != WordSize(len(sp.Alphabet), len(sp.Values)):
		return fmt.Errorf("word size %d, but %d values over %d letters need %d",
			sp.WordSize, len(sp.Values), len(sp.Alphabet), WordSize(len(sp.Alphabet), len(sp.Values)))
	case sp.MinN < 1 || sp.MaxN < sp.MinN:
		return fmt.Errorf("n-gram range [%d,%d]", sp.MinN, sp.MaxN)
	}
	for i := 1; i < len(sp.Values); i++ {
		if !(sp.Values[i-1] < sp.Values[i]) {
			return fmt.Errorf("values %d and %d not strictly ascending", i-1, i)
		}
	}
	longest := 0
	for _, g := range sp.Grams {
		longest = max(longest, len(g)/sp.WordSize)
	}
	if sp.MaxN > longest {
		return fmt.Errorf("max_n %d above the longest gram's order %d", sp.MaxN, longest)
	}
	return nil
}
