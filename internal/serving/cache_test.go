package serving

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func fillWith(b []byte, calls *atomic.Int64) func() ([]byte, error) {
	return func() ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		return b, nil
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(1 << 20)
	var calls atomic.Int64
	v, hit, err := c.Get("k", fillWith([]byte("tile-bytes"), &calls))
	if err != nil || hit || string(v) != "tile-bytes" {
		t.Fatalf("first get: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Get("k", fillWith([]byte("other"), &calls))
	if err != nil || !hit || string(v) != "tile-bytes" {
		t.Fatalf("second get: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls.Load() != 1 {
		t.Errorf("fill ran %d times, want 1", calls.Load())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Budget for exactly two 4-byte values; inserting a third evicts the
	// least recently used.
	c := NewCache(8)
	for _, k := range []string{"a", "b"} {
		if _, _, err := c.Get(k, fillWith([]byte("xxxx"), nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, hit, _ := c.Get("a", fillWith(nil, nil)); !hit {
		t.Fatal("a not resident")
	}
	if _, _, err := c.Get("c", fillWith([]byte("yyyy"), nil)); err != nil {
		t.Fatal(err)
	}
	if !resident(c, "a") || resident(c, "b") || !resident(c, "c") {
		t.Errorf("residency a=%v b=%v c=%v, want a and c only",
			resident(c, "a"), resident(c, "b"), resident(c, "c"))
	}
	if c.curBytes != 8 || c.ll.Len() != 2 {
		t.Errorf("bytes=%d len=%d, want 8 and 2", c.curBytes, c.ll.Len())
	}
}

func TestCacheOversizeValueNotCached(t *testing.T) {
	c := NewCache(4)
	big := bytes.Repeat([]byte("z"), 16)
	v, hit, err := c.Get("big", fillWith(big, nil))
	if err != nil || hit || len(v) != 16 {
		t.Fatalf("oversize get: len=%d hit=%v err=%v", len(v), hit, err)
	}
	if resident(c, "big") || c.curBytes != 0 {
		t.Error("oversize value was cached")
	}
}

func TestCacheFillErrorNotCached(t *testing.T) {
	c := NewCache(1 << 10)
	boom := errors.New("rasterize failed")
	if _, _, err := c.Get("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if resident(c, "k") {
		t.Fatal("error result was cached")
	}
	// Next Get retries the fill and can succeed.
	v, hit, err := c.Get("k", fillWith([]byte("ok"), nil))
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry get: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1 << 20)
	var calls atomic.Int64
	gate := make(chan struct{})
	fill := func() ([]byte, error) {
		calls.Add(1)
		<-gate // hold every concurrent caller on one in-progress fill
		return []byte("slow-tile"), nil
	}

	const workers = 16
	var wg sync.WaitGroup
	results := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Get("hot", fill)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = string(v)
		}(i)
	}
	// Let workers pile up on the flight, then release the fill.
	for calls.Load() == 0 {
	}
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("fill ran %d times under concurrency, want 1", calls.Load())
	}
	for i, r := range results {
		if r != "slow-tile" {
			t.Fatalf("worker %d got %q", i, r)
		}
	}
}

func TestCacheConcurrentChurn(t *testing.T) {
	// Small budget forces constant eviction while many goroutines hammer
	// overlapping keys — the race detector gates this.
	c := NewCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := "k-" + strconv.Itoa(i%13)
				v, _, err := c.Get(k, fillWith([]byte("value-"+k), nil))
				if err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
				if string(v) != "value-"+k {
					t.Errorf("get %s returned %q", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// resident reports whether key is cached, without touching LRU order or
// counters.
func resident(c *Cache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}
