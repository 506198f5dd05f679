package textrep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// seedWalks generates plateau-heavy random walks, five base altitudes
// apart: repeated values give every n-gram order up to 8 a frequent gram,
// and ~300 distinct values push order 8 past 64-bit packing into the
// hashed index.
func seedWalks(n, points int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		elev := float64(i%5)*120 + rng.Float64()*20
		sig := make([]float64, points)
		for j := range sig {
			if rng.Intn(3) == 0 {
				elev += rng.NormFloat64() * 3
			}
			sig[j] = elev
		}
		out[i] = sig
	}
	return out
}

// csrJSON renders a CSR matrix in the layout of
// testdata/pipeline_seed_features.json.
func csrJSON(t *testing.T, p *Pipeline, signals [][]float64) []byte {
	t.Helper()
	sp := p.FeaturesAllSparse(signals)
	blob, err := json.Marshal(map[string]any{
		"rows": sp.Rows, "cols": sp.Cols, "row_ptr": sp.RowPtr, "col_idx": sp.ColIdx, "val": sp.Val,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// TestPipelineSeedFixture pins persistence across versions. The fixtures
// were written by an earlier version of this package: the saved pipeline
// must load and featurize to the same CSR bytes, and a pipeline rebuilt
// from the same corpus must marshal to the same bytes.
func TestPipelineSeedFixture(t *testing.T) {
	saved, err := os.ReadFile("testdata/pipeline_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	wantCSR, err := os.ReadFile("testdata/pipeline_seed_features.json")
	if err != nil {
		t.Fatal(err)
	}
	var loaded Pipeline
	if err := json.Unmarshal(saved, &loaded); err != nil {
		t.Fatal(err)
	}
	probe := append(seedWalks(8, 120, 24), []float64{-1000, 0.5, 5000, 123.4567})
	if got := csrJSON(t, &loaded, probe); !bytes.Equal(got, wantCSR) {
		t.Errorf("loaded pipeline featurizes to\n%s\nwant\n%s", got, wantCSR)
	}

	cfg := paperConfig() // the fixture's configuration
	cfg.MaxFeatures = 512
	built := newTestPipeline(t, seedWalks(40, 120, 23), cfg)
	blob, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(blob, '\n'), saved) {
		t.Error("rebuilt pipeline marshals differently from the saved fixture")
	}
	if got := csrJSON(t, built, probe); !bytes.Equal(got, wantCSR) {
		t.Error("rebuilt pipeline featurizes differently from the saved fixture")
	}
}

// TestBuildVocabularyClampsMaxN checks that a vocabulary whose selection
// drops every gram of the top orders records the longest surviving order,
// so its pipeline reloads.
func TestBuildVocabularyClampsMaxN(t *testing.T) {
	v, err := buildVocab([]string{"aaaabbbb"}, VocabConfig{WordSize: 1, MinN: 1, MaxN: 6, MaxFeatures: 4})
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, g := range v.grams {
		longest = max(longest, len(g))
	}
	if v.maxN != longest || longest >= 6 {
		t.Fatalf("maxN = %d, longest gram order %d (grams %v)", v.maxN, longest, v.grams)
	}

	cfg := paperConfig()
	cfg.MaxFeatures = 3
	p := newTestPipeline(t, [][]float64{{1, 1, 1, 2, 2, 2, 3, 3, 3}}, cfg)
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Pipeline
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("pipeline with clamped orders does not reload: %v", err)
	}
}

// unmarshalPipeline decodes a saved pipeline whose fields are overridden
// by the given JSON members.
func unmarshalPipeline(t *testing.T, override string) error {
	t.Helper()
	base := map[string]json.RawMessage{}
	if err := json.Unmarshal([]byte(`{"precision":0,"alphabet":"ab","word_size":2,"values":[1,2,3],"min_n":1,"max_n":2,"grams":["aa","aaab","ab"]}`), &base); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(override), &base); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var p Pipeline
	return p.UnmarshalJSON(blob)
}

func assertMalformed(t *testing.T, err error, why string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted", why)
	}
	if !errors.Is(err, ErrMalformedPipeline) {
		t.Fatalf("%s: error %v does not wrap ErrMalformedPipeline", why, err)
	}
}

// TestPipelineUnmarshalBaseAccepted checks the pipeline the rejection
// tests below corrupt one field of, so each fails for its stated reason.
func TestPipelineUnmarshalBaseAccepted(t *testing.T) {
	if err := unmarshalPipeline(t, `{}`); err != nil {
		t.Fatalf("valid pipeline rejected: %v", err)
	}
}

// A word size that disagrees with the value count used to reach
// make([]byte, w) unchecked; a huge one panicked.
func TestPipelineUnmarshalRejectsWordSizeMismatch(t *testing.T) {
	assertMalformed(t, unmarshalPipeline(t, `{"word_size":3}`), "word size 3 for 3 values")
	assertMalformed(t, unmarshalPipeline(t, `{"word_size":1125899906842624}`), "huge word size")
}

// A max_n above every stored gram's order used to size the token index's
// power table unchecked; a huge one panicked.
func TestPipelineUnmarshalRejectsMaxNAboveGrams(t *testing.T) {
	assertMalformed(t, unmarshalPipeline(t, `{"max_n":3}`), "max_n 3 over 2-grams")
	assertMalformed(t, unmarshalPipeline(t, `{"max_n":1125899906842624}`), "huge max_n")
}

func TestPipelineUnmarshalRejectsUnsortedValues(t *testing.T) {
	assertMalformed(t, unmarshalPipeline(t, `{"values":[1,3,2]}`), "descending values")
	assertMalformed(t, unmarshalPipeline(t, `{"values":[1,2,2]}`), "repeated values")
}

// FuzzPipelineUnmarshalJSON feeds arbitrary bytes to the loader of saved
// pipelines. Rejections must wrap ErrMalformedPipeline; an accepted input
// must re-marshal to bytes that load again and marshal identically.
func FuzzPipelineUnmarshalJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Pipeline
		if err := p.UnmarshalJSON(data); err != nil {
			if !errors.Is(err, ErrMalformedPipeline) {
				t.Fatalf("rejection %v does not wrap ErrMalformedPipeline", err)
			}
			return
		}
		once, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		var back Pipeline
		if err := back.UnmarshalJSON(once); err != nil {
			t.Fatalf("re-marshaled pipeline rejected: %v\n%s", err, once)
		}
		twice, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("marshal is not stable:\n%s\n%s", once, twice)
		}
	})
}
