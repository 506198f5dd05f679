package textrep

import (
	"fmt"
	"math/bits"
	"sort"
)

// Vocabulary is the set of unique word-aligned n-grams observed in a
// corpus, with the machinery to turn a token sequence into a normalized
// bag-of-words CSR row (paper Fig. 6 and §III-C).
//
// The grams are kept as strings — the persisted form — and every
// vocabulary carries, from construction, the token index the featurizer
// scans: an n-gram of encoder rank ids becomes one uint64 key, bit-packed
// while n·⌈log₂ c⌉ ≤ 64 and keyed by a seeded polynomial rolling hash
// beyond, with every hash hit verified against the stored rank sequence so
// a colliding window can never count as a feature.
type Vocabulary struct {
	wordSize int
	minN     int
	maxN     int
	// grams lists the n-grams in feature order (sorted for determinism).
	grams []string

	// tokIndex[n-minN] resolves uint64 keys of order n to feature positions.
	tokIndex []map[uint64]int32
	// tokGrams[i] is gram i as a rank sequence, used to verify hash hits.
	tokGrams [][]uint32
	// rank1 short-circuits order-1 lookups: rank1[rank] is the feature
	// position of the 1-gram with that rank id, or -1. The order-1 key
	// space is dense (one rank id), so an array probe replaces the map.
	rank1 []int32
	// tables[n-minN] is the open-addressed mirror of tokIndex[n-minN] the
	// scan actually probes: flat arrays at 25% load resolve both hits and
	// misses in one or two cache-resident accesses, where a Go map costs a
	// hash-function call plus bucket-group probing.
	tables []openTable
	// packBits is the bit width of one rank id; orders with n·packBits ≤ 64
	// use exact bit-packed keys.
	packBits uint
	// hashedFrom is the smallest order keyed by the rolling hash
	// (maxN+1 when every order packs).
	hashedFrom int
	// hashBase is the seeded odd multiplier of the rolling hash; powBase[k]
	// caches hashBase^k for O(1) window hashes from prefix hashes.
	hashBase uint64
	powBase  []uint64
}

// VocabConfig controls vocabulary construction.
type VocabConfig struct {
	// WordSize is the encoder's per-word letter count.
	WordSize int
	// MinN and MaxN bound the n-gram orders collected; the paper traverses
	// the corpus n times with different window sizes, i.e. 1..n.
	MinN int
	MaxN int
	// MinFrequency discards n-grams occurring fewer times across the whole
	// corpus (the paper's term-frequency feature selection). Zero keeps all.
	MinFrequency int
	// MaxFeatures keeps only the most frequent n-grams when positive,
	// bounding the feature space on large corpora.
	MaxFeatures int
}

// BuildVocabulary scans the corpus with word-aligned windows of size
// W = w×n for every n in [MinN, MaxN] and collects unique window contents,
// then applies frequency-based feature selection and indexes the surviving
// grams by token. alphabet and ranks describe the encoder that produced the
// corpus: its letters and its unique-value count c. The vocabulary's order
// range ends at the longest gram that survived selection, so a saved
// vocabulary never declares orders it cannot contain.
func BuildVocabulary(corpus []string, cfg VocabConfig, alphabet string, ranks int) (*Vocabulary, error) {
	if cfg.WordSize < 1 {
		return nil, fmt.Errorf("textrep: word size %d", cfg.WordSize)
	}
	if cfg.MinN < 1 || cfg.MaxN < cfg.MinN {
		return nil, fmt.Errorf("textrep: invalid n-gram range [%d,%d]", cfg.MinN, cfg.MaxN)
	}
	for i, line := range corpus {
		if len(line)%cfg.WordSize != 0 {
			return nil, fmt.Errorf("textrep: corpus line %d length %d not a multiple of word size %d",
				i, len(line), cfg.WordSize)
		}
	}

	freq := map[string]int{}
	for _, line := range corpus {
		for n := cfg.MinN; n <= cfg.MaxN; n++ {
			window := cfg.WordSize * n
			// Slide word by word, counting every (overlapping) window: this
			// is vocabulary collection, where coverage matters.
			for off := 0; off+window <= len(line); off += cfg.WordSize {
				freq[line[off:off+window]]++
			}
		}
	}
	if len(freq) == 0 {
		return nil, fmt.Errorf("textrep: corpus too short for %d-grams", cfg.MinN)
	}

	grams := make([]string, 0, len(freq))
	for g, c := range freq {
		if cfg.MinFrequency > 0 && c < cfg.MinFrequency {
			continue
		}
		grams = append(grams, g)
	}
	if len(grams) == 0 {
		return nil, fmt.Errorf("textrep: frequency threshold %d removed every feature", cfg.MinFrequency)
	}

	if cfg.MaxFeatures > 0 && len(grams) > cfg.MaxFeatures {
		// Keep the most frequent; ties broken lexicographically for
		// determinism.
		sort.Slice(grams, func(i, j int) bool {
			if freq[grams[i]] != freq[grams[j]] {
				return freq[grams[i]] > freq[grams[j]]
			}
			return grams[i] < grams[j]
		})
		grams = grams[:cfg.MaxFeatures]
	}
	sort.Strings(grams)

	maxN := cfg.MinN
	for _, g := range grams {
		maxN = max(maxN, len(g)/cfg.WordSize)
	}
	return newVocabulary(grams, cfg.WordSize, cfg.MinN, maxN, alphabet, ranks)
}

// newVocabulary assembles a vocabulary over sorted grams and builds its
// token index.
func newVocabulary(grams []string, wordSize, minN, maxN int, alphabet string, ranks int) (*Vocabulary, error) {
	v := &Vocabulary{wordSize: wordSize, minN: minN, maxN: maxN, grams: grams}
	if err := v.buildTokenIndex(alphabet, ranks); err != nil {
		return nil, err
	}
	return v, nil
}

// Size returns the feature dimensionality.
func (v *Vocabulary) Size() int { return len(v.grams) }

// hashBase0 seeds the rolling-hash multiplier (an arbitrary odd 64-bit
// constant, splitmix64's increment); collisions among vocabulary grams
// deterministically reseed by hashStep.
const (
	hashBase0 uint64 = 0x9e3779b97f4a7c15
	hashStep  uint64 = 0xbf58476d1ce4e5b9
	// maxReseeds bounds the collision-reseed loop; with ≤ a few thousand
	// grams per order a single 64-bit hash collision is already ~2⁻⁴⁰
	// unlikely, so hitting this bound indicates a bug, not bad luck.
	maxReseeds = 64
)

// buildTokenIndex derives the integer-keyed n-gram index from the string
// grams. alphabet must be the encoder's alphabet (it decodes words back to
// rank ids) and ranks the encoder's unique-value count c; every rank id is
// then < ranks and fits in ⌈log₂ c⌉ bits. Orders whose packed width
// exceeds 64 bits fall back to a seeded rolling hash whose hits are
// verified against the stored rank sequences, so lookups stay exact.
func (v *Vocabulary) buildTokenIndex(alphabet string, ranks int) error {
	if len(alphabet) < 2 {
		return fmt.Errorf("textrep: alphabet needs >= 2 letters, got %d", len(alphabet))
	}
	if ranks < 1 {
		return fmt.Errorf("textrep: rank count %d", ranks)
	}

	var letterVal [256]int16
	for i := range letterVal {
		letterVal[i] = -1
	}
	for i := 0; i < len(alphabet); i++ {
		letterVal[alphabet[i]] = int16(i)
	}

	// Decode every gram into its rank sequence.
	tokGrams := make([][]uint32, len(v.grams))
	for gi, g := range v.grams {
		n := len(g) / v.wordSize
		if n < v.minN || n > v.maxN || len(g)%v.wordSize != 0 {
			return fmt.Errorf("textrep: gram %d length %d outside order range", gi, len(g))
		}
		seq := make([]uint32, n)
		for w := 0; w < n; w++ {
			word := g[w*v.wordSize : (w+1)*v.wordSize]
			rank := 0
			for k := 0; k < len(word); k++ {
				d := letterVal[word[k]]
				if d < 0 {
					return fmt.Errorf("textrep: gram %q letter %q outside alphabet", g, word[k])
				}
				rank = rank*len(alphabet) + int(d)
			}
			if rank >= ranks {
				return fmt.Errorf("textrep: gram %q decodes to rank %d, encoder has %d", g, rank, ranks)
			}
			seq[w] = uint32(rank)
		}
		tokGrams[gi] = seq
	}

	packBits := uint(bits.Len(uint(ranks - 1)))
	if packBits == 0 {
		packBits = 1
	}
	hashedFrom := v.maxN + 1
	for n := v.minN; n <= v.maxN; n++ {
		if uint(n)*packBits > 64 {
			hashedFrom = n
			break
		}
	}

	// Register keys; on an intra-vocabulary hash collision, reseed and
	// retry (deterministically) until every gram owns a distinct key.
	base := hashBase0
reseed:
	for attempt := 0; ; attempt++ {
		if attempt >= maxReseeds {
			return fmt.Errorf("textrep: token index could not find a collision-free hash seed in %d attempts", maxReseeds)
		}
		powBase := make([]uint64, v.maxN+1)
		powBase[0] = 1
		for k := 1; k <= v.maxN; k++ {
			powBase[k] = powBase[k-1] * base
		}
		tokIndex := make([]map[uint64]int32, v.maxN-v.minN+1)
		for i := range tokIndex {
			tokIndex[i] = map[uint64]int32{}
		}
		for gi, seq := range tokGrams {
			n := len(seq)
			key := tokenKey(seq, packBits, n >= hashedFrom, base)
			m := tokIndex[n-v.minN]
			if prev, dup := m[key]; dup && !rankSeqEqual(tokGrams[prev], seq) {
				base += hashStep
				continue reseed
			}
			m[key] = int32(gi)
		}
		v.tokGrams = tokGrams
		v.tokIndex = tokIndex
		v.packBits = packBits
		v.hashedFrom = hashedFrom
		v.hashBase = base
		v.powBase = powBase
		v.buildFastPaths(ranks)
		return nil
	}
}

// rank1Cap bounds the order-1 direct table: one int32 per encoder rank, so
// even a corpus where every point is a distinct value stays a few MB.
const rank1Cap = 1 << 24

// openTable is a linear-probing hash table from uint64 token keys to
// feature positions, sized to 4x its entry count (25% load). slot[i] < 0
// marks an empty slot, so a miss usually resolves on the first probe.
type openTable struct {
	keys  []uint64
	slots []int32
	shift uint
}

// buildOpenTable mirrors one order's key→position map into flat arrays.
func buildOpenTable(m map[uint64]int32) openTable {
	logSize := uint(2)
	for 1<<logSize < 4*len(m) {
		logSize++
	}
	t := openTable{
		keys:  make([]uint64, 1<<logSize),
		slots: make([]int32, 1<<logSize),
		shift: 64 - logSize,
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	mask := uint64(1<<logSize - 1)
	for key, gi := range m {
		i := mixKey(key) >> t.shift
		for t.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = key
		t.slots[i] = gi
	}
	return t
}

// get resolves a key; gi < 0 means absent.
func (t *openTable) get(key uint64) int32 {
	mask := uint64(len(t.keys) - 1)
	i := mixKey(key) >> t.shift
	for {
		gi := t.slots[i]
		if gi < 0 || t.keys[i] == key {
			return gi
		}
		i = (i + 1) & mask
	}
}

// buildFastPaths derives the scan-side lookup structures from the finished
// token index: the order-1 direct table and per-order open-addressed
// tables. Both are pure accelerators — they never change which windows
// match.
func (v *Vocabulary) buildFastPaths(ranks int) {
	v.rank1 = nil
	if v.minN == 1 && ranks <= rank1Cap {
		v.rank1 = make([]int32, ranks)
		for i := range v.rank1 {
			v.rank1[i] = -1
		}
		for key, gi := range v.tokIndex[0] {
			v.rank1[key] = gi
		}
	}
	v.tables = make([]openTable, len(v.tokIndex))
	for oi, m := range v.tokIndex {
		if len(m) > 0 {
			v.tables[oi] = buildOpenTable(m)
		}
	}
}

// mixKey scrambles a token key before table indexing (multiplicative
// hashing): packed keys concentrate entropy in the low bits, and the
// multiply moves it into the high bits the probe index uses.
func mixKey(k uint64) uint64 { return k * hashBase0 }

// tokenKey computes the uint64 key of one rank sequence: exact bit-packing
// for narrow orders, the rolling polynomial hash otherwise. Ranks are
// offset by 1 in the hash so a zero rank still advances the state.
func tokenKey(seq []uint32, packBits uint, hashed bool, base uint64) uint64 {
	if !hashed {
		var k uint64
		for _, t := range seq {
			k = k<<packBits | uint64(t)
		}
		return k
	}
	var h uint64
	for _, t := range seq {
		h = h*base + uint64(t) + 1
	}
	return h
}

func rankSeqEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tokenVectorizer owns the per-goroutine scratch of the featurizer: prefix
// hashes for rolling-hash windows and a dense count row with its touched
// set for sparse emission. One vectorizer per worker makes the whole batch
// path allocation-free after warm-up; it is NOT safe for concurrent use.
type tokenVectorizer struct {
	v      *Vocabulary
	prefix []uint64 // prefix[i] = hash of tokens[:i]
	counts []float64
	// mask is the touched-feature bitset of the row being built: bit gi is
	// set iff counts[gi] != 0. Sparse emission walks its set bits, which
	// come out in ascending column order for free — no per-row sort.
	mask []uint64
}

// newTokenVectorizer returns a vectorizer bound to v.
func (v *Vocabulary) newTokenVectorizer() *tokenVectorizer {
	return &tokenVectorizer{
		v:      v,
		counts: make([]float64, len(v.grams)),
		mask:   make([]uint64, (len(v.grams)+63)/64),
	}
}

// scan walks the token sequence order by order with word-aligned windows,
// counting NON-overlapping occurrences (the paper counts "words and
// non-overlapping occurrences of word sequences"): a match jumps the whole
// window, a miss advances one word. It calls hit for every matched feature
// and returns the total match count.
//
// Each populated order runs its fastest exact loop: order 1 indexes the
// direct rank table, packed orders roll the previous window's key forward
// with one shift+or, and hashed orders derive window hashes from the
// prefix array in O(1), verifying every table hit against the stored rank
// sequence so a colliding out-of-vocabulary window can never masquerade
// as a feature.
func (tv *tokenVectorizer) scan(tokens []uint32, hit func(int32)) float64 {
	v := tv.v
	needPrefix := false
	for n := max(v.hashedFrom, v.minN); n <= v.maxN; n++ {
		if len(v.tokIndex[n-v.minN]) > 0 {
			needPrefix = true
			break
		}
	}
	if needPrefix {
		if cap(tv.prefix) < len(tokens)+1 {
			tv.prefix = make([]uint64, len(tokens)+1)
		}
		tv.prefix = tv.prefix[:len(tokens)+1]
		tv.prefix[0] = 0
		for i, t := range tokens {
			tv.prefix[i+1] = tv.prefix[i]*v.hashBase + uint64(t) + 1
		}
	}
	var total float64
	for n := v.minN; n <= v.maxN; n++ {
		oi := n - v.minN
		if len(v.tokIndex[oi]) == 0 || n > len(tokens) {
			continue // no grams of this order, or no full window: all miss
		}
		if n == 1 && v.rank1 != nil {
			// Order 1 resolves through the direct table; the jump-on-match
			// and advance-on-miss steps coincide at n = 1.
			for _, t := range tokens {
				if gi := v.rank1[t]; gi >= 0 {
					hit(gi)
					total++
				}
			}
			continue
		}
		table := &v.tables[oi]
		if n >= v.hashedFrom {
			for off := 0; off+n <= len(tokens); {
				key := tv.prefix[off+n] - tv.prefix[off]*v.powBase[n]
				if gi := table.get(key); gi >= 0 && rankSeqEqual(v.tokGrams[gi], tokens[off:off+n]) {
					hit(gi)
					total++
					off += n // non-overlapping: jump the whole match
				} else {
					off++
				}
			}
			continue
		}
		// Packed order: advance-by-one shifts the next token into the
		// rolling key; a match jumps n words and repacks from scratch.
		w := uint(n) * v.packBits
		mask := ^uint64(0)
		if w < 64 {
			mask = 1<<w - 1
		}
		key := tokenKey(tokens[:n], v.packBits, false, 0)
		for off := 0; ; {
			if gi := table.get(key); gi >= 0 {
				hit(gi)
				total++
				off += n
				if off+n > len(tokens) {
					break
				}
				key = tokenKey(tokens[off:off+n], v.packBits, false, 0)
			} else {
				off++
				if off+n > len(tokens) {
					break
				}
				key = (key<<v.packBits | uint64(tokens[off+n-1])) & mask
			}
		}
	}
	return total
}

// appendSparse vectorizes the token sequence into CSR row form: the row's
// nonzero (column, value) pairs, columns ascending, are appended to
// cols/vals and the grown slices returned. Each value is the feature's
// count over the row's total match count, so a row sums to 1; untouched
// features are simply never emitted.
func (tv *tokenVectorizer) appendSparse(tokens []uint32, cols []int32, vals []float64) ([]int32, []float64) {
	if len(tokens) == 0 {
		return cols, vals
	}
	total := tv.scan(tokens, func(gi int32) {
		tv.mask[uint32(gi)>>6] |= 1 << (uint32(gi) & 63)
		tv.counts[gi]++
	})
	if total == 0 {
		return cols, vals
	}
	for w, word := range tv.mask {
		if word == 0 {
			continue
		}
		tv.mask[w] = 0
		base := int32(w << 6)
		for word != 0 {
			gi := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			cols = append(cols, gi)
			vals = append(vals, tv.counts[gi]/total)
			tv.counts[gi] = 0
		}
	}
	return cols, vals
}
