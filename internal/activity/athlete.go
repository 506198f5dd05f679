package activity

import (
	"fmt"
	"math/rand"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/terrain"
)

// Activity is one recorded workout: the trajectory, its elevation series
// (one elevation per vertex, as a dense fitness recording has), and the
// ground-truth region label used for evaluation.
type Activity struct {
	// Name identifies the activity ("wdc-0142").
	Name string
	// Region is the ground-truth region label (a Table I region name).
	Region string
	// Path is the recorded trajectory.
	Path geo.Path
	// Elevations is the recorded elevation at each trajectory vertex.
	Elevations []float64
}

// AthleteConfig tunes the simulated athlete's habits.
type AthleteConfig struct {
	// FavoriteRoutes is how many favorite courses the athlete keeps per
	// region; favorites are repeated with jitter across activities.
	FavoriteRoutes int
	// FavoriteProb is the probability that an activity repeats a favorite
	// rather than exploring a new course.
	FavoriteProb float64
	// JitterMeters is the day-to-day GPS/detour jitter applied when a
	// favorite is repeated.
	JitterMeters float64
	// MinLengthMeters and MaxLengthMeters bound workout course lengths.
	MinLengthMeters float64
	MaxLengthMeters float64
	// AnchorSpreadMeters is how far the home/school/work anchors sit from
	// the region center.
	AnchorSpreadMeters float64
}

// DefaultAthleteConfig returns the configuration used in the experiments,
// tuned so the simulated history reproduces the paper's measured properties
// (≈35 % average same-region route overlap).
func DefaultAthleteConfig() AthleteConfig {
	return AthleteConfig{
		FavoriteRoutes:     2,
		FavoriteProb:       0.78,
		JitterMeters:       25,
		MinLengthMeters:    3000,
		MaxLengthMeters:    7000,
		AnchorSpreadMeters: 1200,
	}
}

// anchorKind is where an activity starts, with the survey's marginals
// (Fig. 1a): 51 % home, 36 % school, 3 % work, 10 % elsewhere.
type anchorKind int

const (
	anchorHome anchorKind = iota + 1
	anchorSchool
	anchorWork
	anchorElsewhere
)

// pickAnchor draws an anchor kind from the survey distribution.
func pickAnchor(rng *rand.Rand) anchorKind {
	r := rng.Float64()
	switch {
	case r < 0.51:
		return anchorHome
	case r < 0.87:
		return anchorSchool
	case r < 0.90:
		return anchorWork
	default:
		return anchorElsewhere
	}
}

// regionSim holds the per-region simulation state.
type regionSim struct {
	city      *terrain.City
	elevation dem.Source
	gen       *RouteGenerator
	anchors   map[anchorKind]geo.LatLng
	favorites []geo.Path
}

// SimulateAthlete generates the user-specific dataset: for each region in
// regions, counts[region.Name] activities with the athlete's habitual
// behaviour, elevation-annotated from the region's terrain.
//
// Regions are the Table I regions (terrain.AthleteWorld()); counts defaults
// to each region's TargetSegments when nil.
func SimulateAthlete(regions []*terrain.City, counts map[string]int, cfg AthleteConfig, seed int64) ([]Activity, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("activity: no regions")
	}
	if cfg.FavoriteRoutes < 0 || cfg.FavoriteProb < 0 || cfg.FavoriteProb > 1 {
		return nil, fmt.Errorf("activity: invalid athlete config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(seed))

	var out []Activity
	for _, region := range regions {
		n := region.TargetSegments
		if counts != nil {
			n = counts[region.Name]
		}
		if n == 0 {
			continue
		}

		sim, err := newRegionSim(region, cfg, rng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			act, err := sim.nextActivity(fmt.Sprintf("%s-%04d", region.Abbrev, i), cfg, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, act)
		}
	}
	return out, nil
}

// newRegionSim prepares anchors and favorite courses for one region.
func newRegionSim(region *terrain.City, cfg AthleteConfig, rng *rand.Rand) (*regionSim, error) {
	tr, err := region.Terrain()
	if err != nil {
		return nil, err
	}
	gen, err := NewRouteGenerator(region.Bounds, rng)
	if err != nil {
		return nil, fmt.Errorf("activity: region %s: %w", region.Name, err)
	}

	s := &regionSim{city: region, elevation: tr, gen: gen}

	// Fixed life anchors near the region center.
	s.anchors = map[anchorKind]geo.LatLng{
		anchorHome:   region.Center.Destination(rng.Float64()*360, rng.Float64()*cfg.AnchorSpreadMeters),
		anchorSchool: region.Center.Destination(rng.Float64()*360, rng.Float64()*cfg.AnchorSpreadMeters),
		anchorWork:   region.Center.Destination(rng.Float64()*360, rng.Float64()*cfg.AnchorSpreadMeters),
	}

	// Favorite courses all start from an anchor.
	for k := 0; k < cfg.FavoriteRoutes; k++ {
		start := s.anchors[pickAnchorNonElsewhere(rng)]
		length := cfg.MinLengthMeters + rng.Float64()*(cfg.MaxLengthMeters-cfg.MinLengthMeters)
		var course geo.Path
		switch k % 3 {
		case 0:
			course = s.gen.Loop(start, length/(2*3.14159))
		case 1:
			course = s.gen.OutAndBack(start, rng.Float64()*360, length/2)
		default:
			course = s.gen.WanderFrom(start, length)
		}
		s.favorites = append(s.favorites, course)
	}
	return s, nil
}

func pickAnchorNonElsewhere(rng *rand.Rand) anchorKind {
	for {
		if k := pickAnchor(rng); k != anchorElsewhere {
			return k
		}
	}
}

// nextActivity draws one workout according to the athlete's habits.
func (s *regionSim) nextActivity(name string, cfg AthleteConfig, rng *rand.Rand) (Activity, error) {
	var course geo.Path
	if len(s.favorites) > 0 && rng.Float64() < cfg.FavoriteProb {
		base := s.favorites[rng.Intn(len(s.favorites))]
		course = s.gen.Jitter(base, cfg.JitterMeters)
	} else {
		var start geo.LatLng
		if kind := pickAnchor(rng); kind == anchorElsewhere {
			start = s.gen.RandomPoint()
		} else {
			start = s.anchors[kind]
		}
		length := cfg.MinLengthMeters + rng.Float64()*(cfg.MaxLengthMeters-cfg.MinLengthMeters)
		switch rng.Intn(3) {
		case 0:
			course = s.gen.Loop(start, length/(2*3.14159))
		case 1:
			course = s.gen.OutAndBack(start, rng.Float64()*360, length/2)
		default:
			course = s.gen.WanderFrom(start, length)
		}
	}

	elevs := make([]float64, 0, len(course))
	for _, p := range course {
		e, err := s.elevation.ElevationAt(p)
		if err != nil {
			return Activity{}, fmt.Errorf("activity: elevation at %v: %w", p, err)
		}
		elevs = append(elevs, e)
	}
	return Activity{
		Name:       name,
		Region:     s.city.Name,
		Path:       course,
		Elevations: elevs,
	}, nil
}
