package textrep

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// tokenTestSignals generates corpora with a controllable unique-value
// count; classes differ by base elevation so vocabularies are non-trivial.
func tokenTestSignals(n, points int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		sig := make([]float64, points)
		base := float64(rng.Intn(5)) * spread
		for j := range sig {
			sig[j] = base + rng.Float64()*spread
		}
		out[i] = sig
	}
	return out
}

func TestEncodeTokensMatchesEncode(t *testing.T) {
	signals := tokenTestSignals(40, 60, 30, 7)
	enc, err := BuildEncoder(signals, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	// Probe trained signals plus fresh ones with unseen values (nearest
	// fallback) and out-of-range clamps.
	probes := append(tokenTestSignals(10, 60, 30, 8), []float64{-500, 0.5, 9999, 17.3})
	var tokens []uint32
	for _, sig := range probes {
		tokens = enc.EncodeTokens(sig, tokens)
		if len(tokens) != len(sig) {
			t.Fatalf("token count %d for %d samples", len(tokens), len(sig))
		}
		text := enc.Encode(sig)
		for i, tok := range tokens {
			word := enc.wordByRank[int(tok)]
			if got := text[i*enc.WordSize() : (i+1)*enc.WordSize()]; got != word {
				t.Fatalf("sample %d: string path word %q, token path word %q", i, got, word)
			}
		}
	}
}

func TestEncodeTokensReusesBuffer(t *testing.T) {
	enc, err := BuildEncoder([][]float64{{1, 2, 3}}, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 0, 16)
	got := enc.EncodeTokens([]float64{1, 2}, buf)
	if &got[0] != &buf[:1][0] {
		t.Error("EncodeTokens reallocated despite sufficient capacity")
	}
}

// newTestPipeline builds a pipeline and fails the test on error.
func newTestPipeline(t *testing.T, signals [][]float64, cfg PipelineConfig) *Pipeline {
	t.Helper()
	p, err := NewPipeline(signals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildVocab builds a vocabulary over texts written in DefaultAlphabet,
// indexing every word the configured word size can spell.
func buildVocab(corpus []string, cfg VocabConfig) (*Vocabulary, error) {
	return BuildVocabulary(corpus, cfg, DefaultAlphabet, pow(len(DefaultAlphabet), cfg.WordSize))
}

// textTokens decodes a DefaultAlphabet text back into its rank ids, one per
// word: the token sequence Encoder.EncodeTokens emits for the same signal.
func textTokens(text string, wordSize int) []uint32 {
	tokens := make([]uint32, len(text)/wordSize)
	for i := range tokens {
		for _, c := range []byte(text[i*wordSize : (i+1)*wordSize]) {
			tokens[i] = tokens[i]*uint32(len(DefaultAlphabet)) + uint32(strings.IndexByte(DefaultAlphabet, c))
		}
	}
	return tokens
}

// vectorize featurizes one text through the token scan and returns the
// CSR row scattered into a dense vector.
func vectorize(v *Vocabulary, text string) []float64 {
	cols, vals := v.newTokenVectorizer().appendSparse(textTokens(text, v.wordSize), nil, nil)
	return scatter(v.Size(), cols, vals)
}

func scatter(dim int, cols []int32, vals []float64) []float64 {
	row := make([]float64, dim)
	for k, c := range cols {
		row[c] = vals[k]
	}
	return row
}

// stringVectorize is the reference featurizer the token scan is checked
// against: for every order, word-aligned windows over the encoded text are
// looked up by substring, a match jumps the whole window (non-overlapping
// counting) and a miss advances one word; counts are normalized to sum 1.
func stringVectorize(v *Vocabulary, text string) []float64 {
	index := make(map[string]int, v.Size())
	for i, g := range v.grams {
		index[g] = i
	}
	vec := make([]float64, v.Size())
	var total float64
	for n := v.minN; n <= v.maxN; n++ {
		window := v.wordSize * n
		for off := 0; off+window <= len(text); {
			if i, ok := index[text[off:off+window]]; ok {
				vec[i]++
				total++
				off += window
			} else {
				off += v.wordSize
			}
		}
	}
	if total > 0 {
		for i := range vec {
			vec[i] /= total
		}
	}
	return vec
}

// assertTokenStringParity checks, for every signal, that the token scan's
// CSR row holds strictly ascending columns and re-densifies to exactly the
// bits of the reference string vectorizer.
func assertTokenStringParity(t *testing.T, p *Pipeline, signals [][]float64) {
	t.Helper()
	tv := p.vocab.newTokenVectorizer()
	var tokens []uint32
	for si, sig := range signals {
		want := stringVectorize(p.vocab, p.encoder.Encode(sig))
		tokens = p.encoder.EncodeTokens(sig, tokens)
		cols, vals := tv.appendSparse(tokens, nil, nil)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("signal %d: sparse columns not strictly ascending: %v", si, cols)
			}
		}
		got := scatter(p.vocab.Size(), cols, vals)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("signal %d feature %d: string %v, token %v", si, i, want[i], got[i])
			}
		}
	}
}

func TestTokenVectorizePackedParity(t *testing.T) {
	// Narrow value range: every order bit-packs.
	signals := tokenTestSignals(60, 80, 20, 11)
	cfg := paperConfig()
	cfg.MinFrequency = 1
	p := newTestPipeline(t, signals, cfg)
	if p.vocab.hashedFrom <= p.vocab.maxN {
		t.Fatalf("expected fully packed index, hashedFrom = %d", p.vocab.hashedFrom)
	}
	assertTokenStringParity(t, p, signals)
	assertTokenStringParity(t, p, tokenTestSignals(10, 80, 25, 12)) // unseen values
}

func TestTokenVectorizeHashedParity(t *testing.T) {
	// Wide value range: enough unique discrete values that high orders
	// overflow 64-bit packing and take the verified rolling-hash path.
	signals := tokenTestSignals(80, 120, 400, 13)
	cfg := paperConfig()
	cfg.MinFrequency = 1
	p := newTestPipeline(t, signals, cfg)
	v := p.vocab
	if v.hashedFrom > v.maxN {
		t.Fatalf("expected hashed orders (c = %d ranks), all packed", p.encoder.UniqueValues())
	}
	assertTokenStringParity(t, p, signals)
	assertTokenStringParity(t, p, tokenTestSignals(10, 120, 420, 14)) // unseen values
}

// TestFeaturesAllSparseMatchesDense checks the batch featurizer against the
// dense reference rows of the string vectorizer, and that the CSR form is
// worth having: most of the dense matrix is zeros it never stores.
func TestFeaturesAllSparseMatchesDense(t *testing.T) {
	for _, spread := range []float64{20, 400} { // packed and hashed regimes
		signals := tokenTestSignals(50, 90, spread, 17)
		p := newTestPipeline(t, signals, paperConfig())

		sparse := p.FeaturesAllSparse(signals)
		if sparse.Rows != len(signals) || sparse.Cols != p.vocab.Size() {
			t.Fatalf("sparse shape %dx%d, want %dx%d", sparse.Rows, sparse.Cols, len(signals), p.vocab.Size())
		}
		back := sparse.ToDense()
		for i, sig := range signals {
			want := stringVectorize(p.vocab, p.encoder.Encode(sig))
			for j, w := range want {
				if back.At(i, j) != w {
					t.Fatalf("spread %v: row %d feature %d: reference %v, sparse %v", spread, i, j, w, back.At(i, j))
				}
			}
		}
		if sparse.NNZ() >= len(signals)*p.vocab.Size()/2 {
			t.Errorf("sparse matrix is not sparse: %d nnz of %d", sparse.NNZ(), len(signals)*p.vocab.Size())
		}
	}
}

func TestBuildEncoderRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := BuildEncoder([][]float64{{1, bad, 3}}, FloorDiscretizer, DefaultAlphabet); err == nil {
			t.Errorf("corpus containing %v accepted", bad)
		}
	}
	// A discretizer that manufactures non-finite keys from finite input is
	// rejected too.
	badDisc := func(e float64) float64 { return math.NaN() }
	if _, err := BuildEncoder([][]float64{{1}}, badDisc, DefaultAlphabet); err == nil {
		t.Error("NaN-producing discretizer accepted")
	}
}

func TestEncodeNaNDeterministicClamp(t *testing.T) {
	enc, err := BuildEncoder([][]float64{{10, 20, 30}}, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	// A NaN at encode time (impossible to train on) deterministically
	// clamps to the highest rank on both paths.
	if got, want := enc.Encode([]float64{math.NaN()}), enc.Encode([]float64{30}); got != want {
		t.Errorf("Encode(NaN) = %q, want %q", got, want)
	}
	toks := enc.EncodeTokens([]float64{math.NaN()}, nil)
	if int(toks[0]) != enc.UniqueValues()-1 {
		t.Errorf("EncodeTokens(NaN) = rank %d, want %d", toks[0], enc.UniqueValues()-1)
	}
}

// TestAppendSparseReusesCleanScratch checks that a vectorizer reused across
// rows leaks no counts from one row into the next, and that an empty token
// sequence emits nothing.
func TestAppendSparseReusesCleanScratch(t *testing.T) {
	vocab, err := buildVocab([]string{"aabb"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := vectorize(vocab, "aabb")
	tv := vocab.newTokenVectorizer()
	for pass := 0; pass < 2; pass++ {
		cols, vals := tv.appendSparse(textTokens("aabb", 1), nil, nil)
		got := scatter(vocab.Size(), cols, vals)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d feature %d = %v, want %v", pass, i, got[i], want[i])
			}
		}
		if cols, _ := tv.appendSparse(nil, nil, nil); len(cols) != 0 {
			t.Fatalf("empty sequence emitted columns %v", cols)
		}
	}
}

func TestBuildTokenIndexValidation(t *testing.T) {
	corpus := []string{"abab"}
	cfg := VocabConfig{WordSize: 1, MinN: 1, MaxN: 2}
	if _, err := BuildVocabulary(corpus, cfg, "a", 2); err == nil {
		t.Error("1-letter alphabet accepted")
	}
	if _, err := BuildVocabulary(corpus, cfg, "ab", 0); err == nil {
		t.Error("zero ranks accepted")
	}
	// Gram "b" decodes to rank 1, out of range for a 1-rank encoder.
	if _, err := BuildVocabulary(corpus, cfg, "ab", 1); err == nil {
		t.Error("out-of-range gram rank accepted")
	}
	// Gram "c" is no letter of the alphabet.
	if _, err := BuildVocabulary([]string{"abc"}, cfg, "ab", 2); err == nil {
		t.Error("gram outside the alphabet accepted")
	}
	v, err := BuildVocabulary(corpus, cfg, "ab", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.tokIndex) != v.maxN-v.minN+1 {
		t.Errorf("token index covers %d orders, want %d", len(v.tokIndex), v.maxN-v.minN+1)
	}
}

func TestPipelinePersistenceTokenPath(t *testing.T) {
	// Spread wide enough to exercise the hashed orders in the reloaded
	// index as well.
	signals := tokenTestSignals(60, 100, 350, 19)
	cfg := paperConfig()
	cfg.Discretizer = nil
	cfg.Precision = 1
	p := newTestPipeline(t, signals, cfg)

	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Pipeline
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	// Unseen-value signals (nearest-value fallback included) featurize
	// identically before and after the round-trip, on the token path.
	fresh := append(tokenTestSignals(8, 100, 360, 20), []float64{-1000, 0.05, 5000, 123.4567})
	var wantToks, gotToks []uint32
	for si, sig := range fresh {
		wantToks = p.encoder.EncodeTokens(sig, wantToks)
		gotToks = back.encoder.EncodeTokens(sig, gotToks)
		for i := range wantToks {
			if wantToks[i] != gotToks[i] {
				t.Fatalf("signal %d token %d: %d before save, %d after", si, i, wantToks[i], gotToks[i])
			}
		}
	}
	want := p.FeaturesAllSparse(fresh)
	got := back.FeaturesAllSparse(fresh)
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz %d before save, %d after", want.NNZ(), got.NNZ())
	}
	for k := range want.Val {
		if want.ColIdx[k] != got.ColIdx[k] || want.Val[k] != got.Val[k] {
			t.Fatalf("nonzero %d: (%d,%v) before save, (%d,%v) after",
				k, want.ColIdx[k], want.Val[k], got.ColIdx[k], got.Val[k])
		}
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFeaturesAllSparseReusesScratch(t *testing.T) {
	cfg := paperConfig()
	cfg.MinFrequency, cfg.MaxFeatures = 1, 1<<16
	p := newTestPipeline(t, tokenTestSignals(100, 100, 350, 19), cfg)
	row := tokenTestSignals(1, 100, 350, 20)
	want := p.FeaturesAllSparse(row)
	scratch := uint64(8 * p.vocab.Size()) // one dense count row
	got := allocatedBy(func() { p.FeaturesAllSparse(row) })
	t.Logf("second call allocated %d bytes; vocabulary scratch is %d", got, scratch)
	if got >= scratch/4 {
		t.Fatalf("second one-row call allocated %d bytes, want well under the %d-byte scratch", got, scratch)
	}
	if again := p.FeaturesAllSparse(row); again.NNZ() != want.NNZ() {
		t.Fatalf("recycled scratch changed the row: nnz %d, want %d", again.NNZ(), want.NNZ())
	}
}

func TestFeaturesAllSparseScratchFollowsVocabulary(t *testing.T) {
	// UnmarshalJSON swaps the vocabulary under a pipeline that has already
	// cached scratch for the old one.
	small := newTestPipeline(t, tokenTestSignals(10, 30, 20, 3), paperConfig())
	large := newTestPipeline(t, tokenTestSignals(60, 100, 350, 19), paperConfig())
	probe := tokenTestSignals(4, 100, 350, 21)
	small.FeaturesAllSparse(probe)
	blob, err := json.Marshal(large)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, small); err != nil {
		t.Fatal(err)
	}
	want, got := large.FeaturesAllSparse(probe), small.FeaturesAllSparse(probe)
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz %d after reload, want %d", got.NNZ(), want.NNZ())
	}
	for k := range want.Val {
		if want.ColIdx[k] != got.ColIdx[k] || want.Val[k] != got.Val[k] {
			t.Fatalf("nonzero %d: (%d,%v) after reload, want (%d,%v)",
				k, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
		}
	}
}
