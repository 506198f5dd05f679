package httpx

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Shard routing: a mining sweep against N shard instances wants every
// request for the same profile or grid cell to land on the same
// instance, so that instance's LRU cache owns the key's working set and the
// other N-1 caches never duplicate it. A consistent-hash ring over the
// endpoint indexes gives each shard a stable slice of the key space that
// does not depend on request order or on which other keys exist; when the
// owner is down the pool walks the ring to the next-closest shard, so a
// key's failover target is stable too (its entries warm exactly one backup
// cache, not a random one per request).

// ringReplicas is the number of virtual nodes per endpoint. 128 keeps the
// largest/smallest shard share within ~1.3x of each other for small N (the
// 4-shard smoke test asserts per-endpoint balance within 2x).
const ringReplicas = 128

// Ring maps 64-bit keys onto n endpoint indexes by consistent hashing.
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	n      int
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	idx  int
}

// NewRing builds a ring over endpoint indexes 0..n-1. n below 1 behaves
// as 1.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	r := &Ring{n: n, points: make([]ringPoint, 0, n*ringReplicas)}
	for i := 0; i < n; i++ {
		for v := 0; v < ringReplicas; v++ {
			h := HashKey("endpoint-" + strconv.Itoa(i) + "-vnode-" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical vnode hashes (vanishingly rare with FNV-64) tie-break
		// by index so the ring order stays deterministic.
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// OwnerExcluding returns the owner of key skipping endpoints for which skip
// reports true — the stable failover order: the next-closest distinct
// endpoint clockwise on the ring. Returns -1 when every endpoint is
// skipped.
func (r *Ring) OwnerExcluding(key uint64, skip func(idx int) bool) int {
	start := r.search(key)
	seen := 0
	tried := make([]bool, r.n)
	for i := 0; seen < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.idx] {
			continue
		}
		tried[p.idx] = true
		seen++
		if !skip(p.idx) {
			return p.idx
		}
	}
	return -1
}

// search locates the first ring point at or after key, wrapping at the top.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// HashKey hashes an arbitrary string (a canonical grid-cell query, an
// encoded polyline) into the ring's key space: FNV-1a followed
// by a splitmix64-style finalizer. Raw FNV clusters badly on short strings
// that share a prefix — exactly the shape of vnode labels and grid-cell
// queries — and clustered vnode positions skew shard ownership several-fold;
// the finalizer's avalanche restores uniform arcs. Clients use HashKey to
// derive stable shard keys from request identity.
func HashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so every input
// bit flips roughly half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
