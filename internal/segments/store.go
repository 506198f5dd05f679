// Package segments implements the fitness-service side of the paper's data
// mining pipeline (Fig. 4): a store of user-created training route segments,
// an ExploreSegments HTTP API that returns only the top-10 most popular
// segments fully encapsulated by a query boundary, a client, and the
// grid-sweep miner that defeats the top-10 limit by decomposing a city
// boundary into small regions.
package segments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"elevprivacy/internal/activity"
	"elevprivacy/internal/geo"
)

// ExploreLimit is the maximum number of segments ExploreSegments returns
// for one boundary, mirroring the fitness service the paper mined.
const ExploreLimit = 10

// Segment is a user-created training route.
type Segment struct {
	// ID is the store-unique identity.
	ID string
	// Name is the human label ("hill repeats 07").
	Name string
	// Path is the segment's polyline route.
	Path geo.Path
	// Popularity is the number of recorded efforts; Explore ranks by it.
	Popularity int
}

// Store is an in-memory, concurrency-safe segment repository.
type Store struct {
	mu       sync.RWMutex
	segments []Segment
	byID     map[string]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byID: make(map[string]int)}
}

// Add inserts a segment. Adding an existing ID replaces the segment.
func (s *Store) Add(seg Segment) error {
	if seg.ID == "" {
		return fmt.Errorf("segments: empty ID")
	}
	if len(seg.Path) < 2 {
		return fmt.Errorf("segments: segment %s has %d points, need >= 2", seg.ID, len(seg.Path))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byID[seg.ID]; ok {
		s.segments[i] = seg
		return nil
	}
	s.byID[seg.ID] = len(s.segments)
	s.segments = append(s.segments, seg)
	return nil
}

// Len returns the number of stored segments.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segments)
}

// Explore returns the top-k segments (by popularity, ties broken by ID for
// determinism) whose routes are FULLY encapsulated by bounds — a segment
// that straddles the boundary is not returned, exactly as the mined service
// behaves. k is capped at ExploreLimit.
func (s *Store) Explore(bounds geo.BBox, k int) []Segment {
	if k <= 0 || k > ExploreLimit {
		k = ExploreLimit
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	var hits []Segment
	for _, seg := range s.segments {
		if bounds.ContainsPath(seg.Path) {
			hits = append(hits, seg)
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Popularity != hits[j].Popularity {
			return hits[i].Popularity > hits[j].Popularity
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	// Copy paths so callers cannot mutate stored state.
	out := make([]Segment, len(hits))
	for i, h := range hits {
		out[i] = h
		out[i].Path = h.Path.Clone()
	}
	return out
}

// PopulateConfig tunes synthetic segment generation.
type PopulateConfig struct {
	// MinLengthMeters and MaxLengthMeters bound segment route lengths.
	MinLengthMeters float64
	MaxLengthMeters float64
	// MaxPopularity bounds the random effort count.
	MaxPopularity int
}

// DefaultPopulateConfig matches typical user-created running segments.
func DefaultPopulateConfig() PopulateConfig {
	return PopulateConfig{
		MinLengthMeters: 800,
		MaxLengthMeters: 4000,
		MaxPopularity:   5000,
	}
}

// Populate fills the store with n synthetic user-created segments inside
// bounds, IDs prefixed with idPrefix. Generation is deterministic for a
// given rng state.
func (s *Store) Populate(bounds geo.BBox, n int, idPrefix string, cfg PopulateConfig, rng *rand.Rand) error {
	gen, err := activity.NewRouteGenerator(bounds, rng)
	if err != nil {
		return fmt.Errorf("segments: populate: %w", err)
	}
	for i := 0; i < n; i++ {
		length := cfg.MinLengthMeters + rng.Float64()*(cfg.MaxLengthMeters-cfg.MinLengthMeters)
		var path geo.Path
		switch rng.Intn(3) {
		case 0:
			radius := length / 6.3
			path = gen.Loop(gen.RandomPoint(), radius)
		case 1:
			path = gen.OutAndBack(gen.RandomPoint(), rng.Float64()*360, length/2)
		default:
			path = gen.Wander(length)
		}
		seg := Segment{
			ID:         fmt.Sprintf("%s-%05d", idPrefix, i),
			Name:       fmt.Sprintf("%s segment %d", idPrefix, i),
			Path:       path,
			Popularity: 1 + rng.Intn(cfg.MaxPopularity),
		}
		if err := s.Add(seg); err != nil {
			return err
		}
	}
	return nil
}
