package textrep

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultAlphabet is the lowercase Latin alphabet (l = 26).
const DefaultAlphabet = "abcdefghijklmnopqrstuvwxyz"

// Encoder maps discrete elevation values to fixed-length words and encodes
// whole signals as texts. It is built once over the full corpus (the paper
// builds its vocabulary "from all encoded signals regardless of labels")
// and is immutable afterwards.
//
// The hot path is the token form: a discrete value's identity is its RANK
// in sortedVals (a uint32), found by binary search, and the word string of
// rank i is just indexWord(i). EncodeTokens therefore never builds strings
// or hashes floats; Encode renders the same ranks as text for the one-off
// vocabulary build, whose grams are strings.
type Encoder struct {
	disc     Discretizer
	alphabet string
	wordSize int
	// wordByRank[i] is the base-l word of the i-th smallest discrete value.
	wordByRank []string
	// sortedVals supports rank lookup and nearest-value fallback for values
	// unseen at build time (a fresh victim profile can contain new
	// elevations).
	sortedVals []float64
	// blockLast[k] is the last value of sortedVals block k (rankBlock values
	// per block): a small cache-resident array searched first, so the full
	// table is touched only inside one block per lookup.
	blockLast []float64
	// exact resolves values seen at build time in one table probe, keyed by
	// their bit pattern; only unseen values (and -0.0, whose bits differ
	// from the stored +0.0) fall through to the binary search.
	exact openTable
}

// rankBlock is the two-level rank-search block size: 64 float64s span 8
// cache lines, while the block-max array stays ~1/64th of the value table.
const rankBlock = 64

// BuildEncoder derives the word mapping from every signal in the corpus:
// signals are discretized, unique values are collected and sorted, the word
// size w = ⌈log_l c⌉ is computed, and the i-th smallest value is assigned
// the i-th base-l word. Non-finite elevations (NaN, ±Inf) are rejected: a
// NaN key would be unfindable later (NaN ≠ NaN) and would corrupt the
// sorted value table every rank lookup depends on.
func BuildEncoder(signals [][]float64, disc Discretizer, alphabet string) (*Encoder, error) {
	if disc == nil {
		return nil, fmt.Errorf("textrep: nil discretizer")
	}
	if len(alphabet) < 2 {
		return nil, fmt.Errorf("textrep: alphabet needs >= 2 letters, got %d", len(alphabet))
	}
	seen := map[float64]bool{}
	for si, sig := range signals {
		for j, e := range sig {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return nil, fmt.Errorf("textrep: signal %d value %d is %v; elevations must be finite", si, j, e)
			}
			v := disc(e)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("textrep: discretizer mapped signal %d value %d (%v) to %v; discrete keys must be finite", si, j, e, v)
			}
			seen[v] = true
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("textrep: empty corpus")
	}

	vals := make([]float64, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	return newEncoder(disc, alphabet, vals), nil
}

// newEncoder assigns the i-th smallest of the sorted, distinct values the
// i-th base-l word of size w = ⌈log_l c⌉.
func newEncoder(disc Discretizer, alphabet string, vals []float64) *Encoder {
	w := WordSize(len(alphabet), len(vals))
	enc := &Encoder{
		disc:       disc,
		alphabet:   alphabet,
		wordSize:   w,
		wordByRank: make([]string, len(vals)),
		sortedVals: vals,
	}
	for i := range vals {
		enc.wordByRank[i] = indexWord(i, w, alphabet)
	}
	enc.buildRankIndex()
	return enc
}

// buildRankIndex derives the rank-lookup accelerators from sortedVals: the
// block-max array of the two-level binary search and the exact-hit table.
func (e *Encoder) buildRankIndex() {
	vals := e.sortedVals
	e.blockLast = make([]float64, 0, (len(vals)+rankBlock-1)/rankBlock)
	for end := rankBlock; end < len(vals); end += rankBlock {
		e.blockLast = append(e.blockLast, vals[end-1])
	}
	e.blockLast = append(e.blockLast, vals[len(vals)-1])

	byBits := make(map[uint64]int32, len(vals))
	for i, v := range vals {
		byBits[math.Float64bits(v)] = int32(i)
	}
	e.exact = buildOpenTable(byBits)
}

// indexWord renders index i as a base-l word of exactly w letters.
func indexWord(i, w int, alphabet string) string {
	l := len(alphabet)
	buf := make([]byte, w)
	for k := w - 1; k >= 0; k-- {
		buf[k] = alphabet[i%l]
		i /= l
	}
	return string(buf)
}

// WordSize returns the per-word letter count.
func (e *Encoder) WordSize() int { return e.wordSize }

// UniqueValues returns the number of distinct discrete values.
func (e *Encoder) UniqueValues() int { return len(e.sortedVals) }

// Encode converts a signal into its text: the concatenation of the word of
// every discretized value. Values unseen at build time map to the nearest
// known discrete value. It renders exactly the ranks EncodeTokens returns.
func (e *Encoder) Encode(signal []float64) string {
	var sb strings.Builder
	sb.Grow(len(signal) * e.wordSize)
	for _, raw := range signal {
		sb.WriteString(e.wordByRank[e.rank(e.disc(raw))])
	}
	return sb.String()
}

// EncodeAll encodes every signal, producing the corpus (one line per
// sample, as in the paper's Fig. 6).
func (e *Encoder) EncodeAll(signals [][]float64) []string {
	out := make([]string, len(signals))
	for i, sig := range signals {
		out[i] = e.Encode(sig)
	}
	return out
}

// EncodeTokens converts a signal into rank ids: token i is the rank of the
// i-th discretized value in the encoder's sorted value table, with unseen
// values snapping to the nearest known value exactly as Encode does. dst
// is reused when its capacity suffices, so batch callers encode with zero
// allocations.
func (e *Encoder) EncodeTokens(signal []float64, dst []uint32) []uint32 {
	if cap(dst) < len(signal) {
		dst = make([]uint32, len(signal))
	}
	dst = dst[:len(signal)]
	for i, raw := range signal {
		dst[i] = uint32(e.rank(e.disc(raw)))
	}
	return dst
}

// rank returns the index of v in sortedVals when present, and the index of
// the nearest known value otherwise. NaN (only reachable through a
// pathological custom discretizer at encode time — BuildEncoder rejects
// non-finite corpora) deterministically clamps to the highest rank, the
// same value the historical map-miss fallback produced.
func (e *Encoder) rank(v float64) int {
	if gi := e.exact.get(math.Float64bits(v)); gi >= 0 {
		return int(gi)
	}
	if math.IsNaN(v) {
		return len(e.sortedVals) - 1
	}
	i := e.searchVals(v)
	switch {
	case i == len(e.sortedVals):
		return len(e.sortedVals) - 1
	case e.sortedVals[i] == v:
		return i
	case i == 0:
		return 0
	}
	lo, hi := e.sortedVals[i-1], e.sortedVals[i]
	if math.Abs(v-lo) <= math.Abs(hi-v) {
		return i - 1
	}
	return i
}

// searchVals returns the smallest index i with sortedVals[i] >= v, and
// len(sortedVals) when no such value exists — sort.SearchFloat64s in two
// levels: the block-max array locates the block, then only that block of
// the full table is searched, keeping lookups cache-resident on corpora
// with tens of thousands of discrete values.
func (e *Encoder) searchVals(v float64) int {
	k := searchFloat64s(e.blockLast, v)
	if k == len(e.blockLast) {
		return len(e.sortedVals)
	}
	lo := k * rankBlock
	hi := min(lo+rankBlock, len(e.sortedVals))
	return lo + searchFloat64s(e.sortedVals[lo:hi], v)
}

// searchFloat64s is sort.SearchFloat64s without the sort.Search closure
// indirection, in branchless form: the half-step is applied via a
// conditional move instead of a data-dependent branch, which would
// mispredict near-always on random probe values. One call per signal
// point makes this the single hottest loop of encoding.
func searchFloat64s(a []float64, v float64) int {
	base, n := 0, len(a)
	for n > 1 {
		half := n >> 1
		if a[base+half-1] < v {
			base += half
		}
		n -= half
	}
	if n == 1 && a[base] < v {
		base++
	}
	return base
}
