package textrep

import (
	"math/rand"
	"testing"
)

func benchSignals(n, points int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([][]float64, n)
	for i := range out {
		sig := make([]float64, points)
		base := float64(rng.Intn(5)) * 40
		for j := range sig {
			sig[j] = base + rng.Float64()*20
		}
		out[i] = sig
	}
	return out
}

func BenchmarkPipelineBuild(b *testing.B) {
	signals := benchSignals(200, 80)
	cfg := paperConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPipeline(signals, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeString vs BenchmarkEncodeTokens: the text rendering the
// vocabulary build consumes versus the allocation-free rank-id path every
// featurization takes.
func BenchmarkEncodeString(b *testing.B) {
	signals := benchSignals(200, 80)
	enc, err := BuildEncoder(signals, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Encode(signals[i%len(signals)])
	}
}

func BenchmarkEncodeTokens(b *testing.B) {
	signals := benchSignals(200, 80)
	enc, err := BuildEncoder(signals, FloorDiscretizer, DefaultAlphabet)
	if err != nil {
		b.Fatal(err)
	}
	var tokens []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens = enc.EncodeTokens(signals[i%len(signals)], tokens)
	}
}

// BenchmarkVectorizeTokenSparse featurizes one sample into a reused CSR
// row.
func BenchmarkVectorizeTokenSparse(b *testing.B) {
	signals := benchSignals(200, 80)
	p, err := NewPipeline(signals, paperConfig())
	if err != nil {
		b.Fatal(err)
	}
	tv := p.vocab.newTokenVectorizer()
	var tokens []uint32
	cols := make([]int32, 0, 256)
	vals := make([]float64, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens = p.encoder.EncodeTokens(signals[i%len(signals)], tokens)
		cols, vals = tv.appendSparse(tokens, cols[:0], vals[:0])
	}
}

func BenchmarkFeaturesAllSparse(b *testing.B) {
	signals := benchSignals(200, 80)
	p, err := NewPipeline(signals, paperConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.FeaturesAllSparse(signals)
	}
}
