package textrep

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFloorDiscretizer(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{52.9, 52}, {52.0, 52}, {-1.2, -2}, {0, 0},
	}
	for _, tc := range tests {
		if got := FloorDiscretizer(tc.in); got != tc.want {
			t.Errorf("FloorDiscretizer(%f) = %f, want %f", tc.in, got, tc.want)
		}
	}
}

func TestPrecisionDiscretizer(t *testing.T) {
	d3 := PrecisionDiscretizer(3)
	tests := []struct{ in, want float64 }{
		{1.23456, 1.234},
		{1.2, 1.2},
		{0.0004, 0},
	}
	for _, tc := range tests {
		if got := d3(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("d3(%f) = %f, want %f", tc.in, got, tc.want)
		}
	}
	d0 := PrecisionDiscretizer(0)
	if got := d0(7.9); got != 7 {
		t.Errorf("d0(7.9) = %f", got)
	}
}

func TestDiscretizeIdempotentProperty(t *testing.T) {
	d := PrecisionDiscretizer(3)
	f := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				continue
			}
			clean = append(clean, v)
		}
		once := discretize(clean, d)
		twice := discretize(once, d)
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordSize(t *testing.T) {
	tests := []struct {
		l, c, want int
	}{
		{26, 1, 1},
		{26, 26, 1},
		{26, 27, 2},
		{26, 676, 2},
		{26, 677, 3},
		{2, 8, 3},
		{2, 9, 4},
		{26, 0, 1},
	}
	for _, tc := range tests {
		if got := WordSize(tc.l, tc.c); got != tc.want {
			t.Errorf("WordSize(%d, %d) = %d, want %d", tc.l, tc.c, got, tc.want)
		}
	}
}

func TestWordSizeSufficientProperty(t *testing.T) {
	// The computed word size must always give enough distinct words.
	f := func(lSeed, cSeed uint16) bool {
		l := int(lSeed%30) + 2
		c := int(cSeed%5000) + 1
		w := WordSize(l, c)
		return pow(l, w) >= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildEncoderAssignsDistinctWords(t *testing.T) {
	signals := [][]float64{
		{1.2, 2.7, 3.1},
		{2.9, 4.4},
	}
	enc, err := BuildEncoder(signals, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	// Unique floors: 1,2,3,4 -> c=4, w=1.
	if enc.UniqueValues() != 4 {
		t.Errorf("UniqueValues = %d, want 4", enc.UniqueValues())
	}
	if enc.WordSize() != 1 {
		t.Errorf("WordSize = %d, want 1", enc.WordSize())
	}
	seen := map[string]bool{}
	for _, v := range []float64{1, 2, 3, 4} {
		word := enc.Encode([]float64{v})
		if len(word) != 1 {
			t.Errorf("word %q has wrong length", word)
		}
		if seen[word] {
			t.Errorf("word %q assigned twice", word)
		}
		seen[word] = true
	}
}

func TestEncoderEncodeRoundStructure(t *testing.T) {
	signals := [][]float64{{10, 20, 10, 30}}
	enc, err := BuildEncoder(signals, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	text := enc.Encode(signals[0])
	if len(text) != 4*enc.WordSize() {
		t.Fatalf("text length = %d", len(text))
	}
	// Same value -> same word: positions 0 and 2 agree.
	w := enc.WordSize()
	if text[0:w] != text[2*w:3*w] {
		t.Error("equal values encoded differently")
	}
	if text[0:w] == text[w:2*w] {
		t.Error("different values encoded identically")
	}
}

func TestEncoderNearestFallback(t *testing.T) {
	enc, err := BuildEncoder([][]float64{{10, 20}}, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	// 11.4 floors to 11, unseen; nearest known is 10.
	if got, want := enc.Encode([]float64{11.4}), enc.Encode([]float64{10}); got != want {
		t.Errorf("nearest-fallback encode = %q, want %q", got, want)
	}
	// 19 -> nearest 20; 5 -> clamps to 10; 99 -> clamps to 20.
	if got, want := enc.Encode([]float64{19}), enc.Encode([]float64{20}); got != want {
		t.Errorf("19 encoded %q, want %q", got, want)
	}
	if got, want := enc.Encode([]float64{5}), enc.Encode([]float64{10}); got != want {
		t.Errorf("5 encoded %q, want %q", got, want)
	}
	if got, want := enc.Encode([]float64{99}), enc.Encode([]float64{20}); got != want {
		t.Errorf("99 encoded %q, want %q", got, want)
	}
}

func TestBuildEncoderValidation(t *testing.T) {
	if _, err := BuildEncoder(nil, FloorDiscretizer, DefaultAlphabet); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := BuildEncoder([][]float64{{1}}, nil, DefaultAlphabet); err == nil {
		t.Error("nil discretizer accepted")
	}
	if _, err := BuildEncoder([][]float64{{1}}, FloorDiscretizer, "a"); err == nil {
		t.Error("1-letter alphabet accepted")
	}
}

func TestIndexWord(t *testing.T) {
	if got := indexWord(0, 2, "ab"); got != "aa" {
		t.Errorf("indexWord(0) = %q", got)
	}
	if got := indexWord(1, 2, "ab"); got != "ab" {
		t.Errorf("indexWord(1) = %q", got)
	}
	if got := indexWord(3, 2, "ab"); got != "bb" {
		t.Errorf("indexWord(3) = %q", got)
	}
}

func TestBuildVocabularyCollectsNGrams(t *testing.T) {
	// Word size 1; text "abab": 1-grams {a,b}, 2-grams {ab, ba}.
	vocab, err := buildVocab([]string{"abab"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a": true, "b": true, "ab": true, "ba": true}
	if vocab.Size() != len(want) {
		t.Fatalf("Size = %d, grams = %v", vocab.Size(), vocab.grams)
	}
	for _, g := range vocab.grams {
		if !want[g] {
			t.Errorf("unexpected gram %q", g)
		}
	}
}

func TestBuildVocabularyWordAlignment(t *testing.T) {
	// Word size 2: "aabb" has words [aa, bb]; the misaligned "ab" straddle
	// must NOT appear.
	vocab, err := buildVocab([]string{"aabb"}, VocabConfig{WordSize: 2, MinN: 1, MaxN: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range vocab.grams {
		if g == "ab" {
			t.Error("vocabulary contains straddling gram")
		}
	}
	// Expected: "aa", "bb", "aabb".
	if vocab.Size() != 3 {
		t.Errorf("Size = %d, grams = %v", vocab.Size(), vocab.grams)
	}
}

func TestBuildVocabularyFrequencyThreshold(t *testing.T) {
	corpus := []string{"aaab", "aaac"} // "a" occurs 6x, b/c once each
	vocab, err := buildVocab(corpus, VocabConfig{WordSize: 1, MinN: 1, MaxN: 1, MinFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Size() != 1 || vocab.grams[0] != "a" {
		t.Errorf("grams = %v, want [a]", vocab.grams)
	}
}

func TestBuildVocabularyMaxFeatures(t *testing.T) {
	corpus := []string{"aaabbc"}
	vocab, err := buildVocab(corpus, VocabConfig{WordSize: 1, MinN: 1, MaxN: 1, MaxFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Most frequent: a (3), b (2).
	grams := vocab.grams
	if len(grams) != 2 || grams[0] != "a" || grams[1] != "b" {
		t.Errorf("grams = %v, want [a b]", grams)
	}
}

func TestBuildVocabularyValidation(t *testing.T) {
	if _, err := buildVocab([]string{"ab"}, VocabConfig{WordSize: 0, MinN: 1, MaxN: 1}); err == nil {
		t.Error("word size 0 accepted")
	}
	if _, err := buildVocab([]string{"ab"}, VocabConfig{WordSize: 1, MinN: 2, MaxN: 1}); err == nil {
		t.Error("inverted n range accepted")
	}
	if _, err := buildVocab([]string{"abc"}, VocabConfig{WordSize: 2, MinN: 1, MaxN: 1}); err == nil {
		t.Error("misaligned corpus line accepted")
	}
	if _, err := buildVocab([]string{""}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 1}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := buildVocab([]string{"aab"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 1, MinFrequency: 10}); err == nil {
		t.Error("threshold that removes everything accepted")
	}
}

func TestVectorizeNormalized(t *testing.T) {
	vocab, err := buildVocab([]string{"aabb"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 1})
	if err != nil {
		t.Fatal(err)
	}
	vec := vectorize(vocab, "aabb")
	var sum float64
	for _, v := range vec {
		if v < 0 {
			t.Errorf("negative feature %f", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("vector sum = %f, want 1", sum)
	}
	// a and b each occur twice: features equal.
	if math.Abs(vec[0]-vec[1]) > 1e-12 {
		t.Errorf("vec = %v, want equal features", vec)
	}
}

func TestVectorizeNonOverlappingCounts(t *testing.T) {
	// Vocabulary with only the bigram "aa"; text "aaaa" has TWO
	// non-overlapping occurrences (not three overlapping ones).
	vocab, err := buildVocab([]string{"aaaa"}, VocabConfig{WordSize: 1, MinN: 2, MaxN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Size() != 1 || vocab.grams[0] != "aa" {
		t.Fatalf("grams = %v", vocab.grams)
	}
	vec := vectorize(vocab, "aaaa")
	// Single feature normalized to 1; underlying count was 2 — verify via
	// an added distractor text with odd length.
	if vec[0] != 1 {
		t.Errorf("vec = %v", vec)
	}

	vocab2, err := buildVocab([]string{"aabb"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 2})
	if err != nil {
		t.Fatal(err)
	}
	vec2 := vectorize(vocab2, "aaaa")
	// Counts: "a"×4 non-overlapping 1-grams, "aa"×2 bigrams; "b", "ab",
	// "bb" zero. Total 6.
	idx := map[string]int{}
	for i, g := range vocab2.grams {
		idx[g] = i
	}
	if math.Abs(vec2[idx["a"]]-4.0/6) > 1e-12 {
		t.Errorf(`feature "a" = %f, want 4/6`, vec2[idx["a"]])
	}
	if math.Abs(vec2[idx["aa"]]-2.0/6) > 1e-12 {
		t.Errorf(`feature "aa" = %f, want 2/6`, vec2[idx["aa"]])
	}
}

func TestVectorizeEmptyText(t *testing.T) {
	vocab, err := buildVocab([]string{"ab"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 1})
	if err != nil {
		t.Fatal(err)
	}
	vec := vectorize(vocab, "")
	for _, v := range vec {
		if v != 0 {
			t.Errorf("empty text vector = %v", vec)
		}
	}
}

func TestVectorizeProbabilityProperty(t *testing.T) {
	vocab, err := buildVocab([]string{"abcabcabc"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed []byte) bool {
		var sb strings.Builder
		for _, b := range seed {
			sb.WriteByte("abc"[int(b)%3])
		}
		vec := vectorize(vocab, sb.String())
		var sum float64
		for _, v := range vec {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return sum == 0 || math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	// Two "cities": low flat signals vs high flat signals.
	signals := [][]float64{
		{5.1, 5.2, 5.3, 5.2, 5.1, 5.0},
		{5.2, 5.3, 5.2, 5.4, 5.1, 5.2},
		{1850.2, 1851.8, 1852.4, 1851.1, 1850.9, 1850.3},
		{1851.0, 1850.4, 1851.5, 1852.2, 1851.7, 1850.8},
	}
	cfg := paperConfig()
	cfg.NGram = 3
	cfg.MinFrequency = 1
	p, err := NewPipeline(signals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.vocab.Size() == 0 {
		t.Fatal("empty feature space")
	}

	x := p.FeaturesAll(signals)
	lowVec, highVec := x.Row(0), x.Row(2)
	// The two classes must use disjoint dominant features.
	var shared float64
	for i := range lowVec {
		shared += math.Min(lowVec[i], highVec[i])
	}
	if shared > 0.1 {
		t.Errorf("low and high signals share %f probability mass; want near 0", shared)
	}

	// Same-class profiles should overlap substantially.
	lowVec2 := x.Row(1)
	var sameShared float64
	for i := range lowVec {
		sameShared += math.Min(lowVec[i], lowVec2[i])
	}
	if sameShared < 0.2 {
		t.Errorf("same-class overlap = %f; want substantial", sameShared)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline([][]float64{{1, 2}}, PipelineConfig{NGram: 0}); err == nil {
		t.Error("NGram 0 accepted")
	}
}

func TestPipelineDefaultsApplied(t *testing.T) {
	p, err := NewPipeline([][]float64{{1, 2, 3, 1, 2, 3}}, PipelineConfig{NGram: 2, MinFrequency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.encoder.WordSize() != 1 {
		t.Errorf("word size = %d", p.encoder.WordSize())
	}
	if p.vocab.Size() == 0 {
		t.Error("empty vocabulary")
	}
}

func TestPipelinePersistenceRoundTrip(t *testing.T) {
	signals := [][]float64{
		{5.1, 5.9, 6.3, 5.2, 5.1, 5.0},
		{5.2, 6.3, 5.2, 6.4, 5.1, 5.2},
		{80.2, 81.8, 82.4, 81.1, 80.9, 80.3},
	}
	cfg := paperConfig()
	cfg.Discretizer = nil
	cfg.Precision = 1
	cfg.NGram = 3
	cfg.MinFrequency = 1
	p, err := NewPipeline(signals, cfg)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Pipeline
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.vocab.Size() != p.vocab.Size() {
		t.Fatalf("dim = %d, want %d", back.vocab.Size(), p.vocab.Size())
	}
	// Training signals and an unseen one (nearest-value fallback) agree.
	probe := append(signals, []float64{5.05, 6.0, 80.0, 81.0})
	want := p.FeaturesAll(probe)
	got := back.FeaturesAll(probe)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("feature %d = %f, want %f", i, got.Data[i], want.Data[i])
		}
	}
}

func TestPipelineUnmarshalValidation(t *testing.T) {
	bad := []string{
		`{`,
		`{}`,
		`{"precision":0,"alphabet":"ab","word_size":1,"values":[1],"min_n":1,"max_n":1,"grams":[]}`,
		`{"precision":0,"alphabet":"a","word_size":1,"values":[1],"min_n":1,"max_n":1,"grams":["a"]}`,
		`{"precision":0,"alphabet":"ab","word_size":0,"values":[1],"min_n":1,"max_n":1,"grams":["a"]}`,
		`{"precision":0,"alphabet":"ab","word_size":1,"values":[1],"min_n":2,"max_n":1,"grams":["a"]}`,
	}
	for _, in := range bad {
		var p Pipeline
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Errorf("input %s accepted", in)
		}
	}
}

// paperConfig matches the paper's evaluation settings: floor
// discretization, 26-letter alphabet, n = 8.
func paperConfig() PipelineConfig {
	return PipelineConfig{
		Discretizer:  FloorDiscretizer,
		Alphabet:     DefaultAlphabet,
		NGram:        8,
		MinFrequency: 2,
		MaxFeatures:  4096,
	}
}

// discretize applies d to every value of the signal, returning a new slice.
func discretize(signal []float64, d Discretizer) []float64 {
	out := make([]float64, len(signal))
	for i, e := range signal {
		out[i] = d(e)
	}
	return out
}
