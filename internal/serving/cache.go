// Package serving holds the in-process caching layer the sharded serving
// tier puts in front of expensive render paths: a size-bounded LRU over
// immutable response bytes with singleflight fill dedup. When a consistent-
// hash pool routes every request for a profile to the same shard,
// that shard's Cache owns the key's working set — the first request pays the
// rasterize/sample cost, every later one is a memory read, and a thundering
// herd on a cold key collapses into one fill.
//
// Values are immutable by contract (profile responses are pure functions of
// their query), so there is no invalidation
// path at all: entries leave only by LRU eviction.
package serving

import (
	"container/list"
	"sync"

	"elevprivacy/internal/obs"
)

// Cache is a byte-bounded LRU keyed by string, with singleflight dedup on
// fills. Safe for concurrent use. The []byte values are shared, not copied:
// callers must treat both the fill result and the returned slice as
// read-only.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	flights  map[string]*flight

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type entry struct {
	key   string
	value []byte
}

// flight is one in-progress fill; concurrent Gets for the same key wait on
// done and share the leader's result instead of filling again.
type flight struct {
	done  chan struct{}
	value []byte
	err   error
}

// CacheOption configures a Cache.
type CacheOption func(*Cache)

// WithCacheMetrics publishes hit/miss/eviction counters into the process
// obs registry under the given cache name:
//
//	elevpriv_serving_cache_hits_total{cache=...}
//	elevpriv_serving_cache_misses_total{cache=...}
//	elevpriv_serving_cache_evictions_total{cache=...}
//
// A hit is any Get served without running fill (including waiters that
// joined an in-progress flight); a miss is a fill actually run.
func WithCacheMetrics(name string) CacheOption {
	return func(c *Cache) {
		label := `{cache="` + name + `"}`
		c.hits = obs.GetCounter("elevpriv_serving_cache_hits_total" + label)
		c.misses = obs.GetCounter("elevpriv_serving_cache_misses_total" + label)
		c.evictions = obs.GetCounter("elevpriv_serving_cache_evictions_total" + label)
	}
}

// NewCache builds a cache bounded to maxBytes of values (keys and
// bookkeeping are not charged). maxBytes below 1 behaves as 1, i.e. an
// effectively empty cache that still dedups concurrent fills.
func NewCache(maxBytes int64, opts ...CacheOption) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	c := &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Get returns the cached value for key, running fill at most once across
// concurrent callers when the key is cold. The second return reports whether
// this caller was served from cache or a shared flight (true) or ran the
// fill itself (false). Fill errors are returned to every waiter and are not
// cached — the next Get retries.
func (c *Cache) Get(key string, fill func() ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).value
		c.mu.Unlock()
		if c.hits != nil {
			c.hits.Inc()
		}
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if c.hits != nil && f.err == nil {
			c.hits.Inc()
		}
		return f.value, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	if c.misses != nil {
		c.misses.Inc()
	}
	f.value, f.err = fill()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.store(key, f.value)
	}
	c.mu.Unlock()
	close(f.done)
	return f.value, false, f.err
}

// store inserts under c.mu, evicting from the LRU tail until the new entry
// fits. A value larger than the whole budget is not cached at all — caching
// it would just flush everything else for a single entry.
func (c *Cache) store(key string, value []byte) {
	size := int64(len(value))
	if size > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		// A racing flight (possible when an entry was evicted mid-flight and
		// refilled) already stored the key; keep the resident value.
		c.ll.MoveToFront(el)
		return
	}
	for c.curBytes+size > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ev := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.items, ev.key)
		c.curBytes -= int64(len(ev.value))
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: value})
	c.curBytes += size
}
