package dataset

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"elevprivacy/internal/activity"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/segments"
	"elevprivacy/internal/terrain"
)

// tinyDataset builds a deterministic dataset with the given per-label sizes.
func tinyDataset(sizes map[string]int) *Dataset {
	labels := make([]string, 0, len(sizes))
	for label := range sizes {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	d := &Dataset{}
	for _, label := range labels {
		n := sizes[label]
		for i := 0; i < n; i++ {
			base := float64(len(label)) * 10
			d.Samples = append(d.Samples, Sample{
				ID:    label + string(rune('0'+i%10)),
				Label: label,
				Elevations: []float64{
					base, base + 1, base + 2, base + float64(i%5), base - 1, base,
				},
				Path: geo.Path{
					{Lat: base / 100, Lng: base / 100},
					{Lat: base/100 + 0.01, Lng: base/100 + 0.01},
				},
			})
		}
	}
	return d
}

func TestLabelsSortedAndCounts(t *testing.T) {
	d := tinyDataset(map[string]int{"b": 3, "a": 2, "c": 1})
	labels := d.Labels()
	if len(labels) != 3 || labels[0] != "a" || labels[1] != "b" || labels[2] != "c" {
		t.Errorf("Labels = %v", labels)
	}
	counts := d.CountByLabel()
	if counts["a"] != 2 || counts["b"] != 3 || counts["c"] != 1 {
		t.Errorf("CountByLabel = %v", counts)
	}
	if d.Len() != 6 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestFilter(t *testing.T) {
	d := tinyDataset(map[string]int{"a": 2, "b": 3, "c": 1})
	f := d.Filter("a", "c")
	if f.Len() != 3 {
		t.Errorf("filtered Len = %d, want 3", f.Len())
	}
	for _, s := range f.Samples {
		if s.Label == "b" {
			t.Error("filter leaked label b")
		}
	}
	if d.Len() != 6 {
		t.Error("Filter mutated source")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := tinyDataset(map[string]int{"a": 1})
	c := d.Clone()
	c.Samples[0].Elevations[0] = 999
	c.Samples[0].Path[0].Lat = 77
	if d.Samples[0].Elevations[0] == 999 {
		t.Error("Clone shares elevation storage")
	}
	if d.Samples[0].Path[0].Lat == 77 {
		t.Error("Clone shares path storage")
	}
}

func TestBalanced(t *testing.T) {
	d := tinyDataset(map[string]int{"a": 10, "b": 5, "c": 7})
	rng := rand.New(rand.NewSource(1))
	bal, err := d.Balanced(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := bal.CountByLabel()
	for _, label := range []string{"a", "b", "c"} {
		if counts[label] != 5 {
			t.Errorf("balanced %s = %d, want 5", label, counts[label])
		}
	}
	if _, err := d.Balanced(6, rng); err == nil {
		t.Error("perClass beyond smallest class accepted")
	}
	if _, err := d.Balanced(0, rng); err == nil {
		t.Error("perClass=0 accepted")
	}
}

func TestSplitStratified(t *testing.T) {
	d := tinyDataset(map[string]int{"a": 10, "b": 10})
	rng := rand.New(rand.NewSource(2))
	train, test, err := d.SplitStratified(0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Errorf("split loses samples: %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	testCounts := test.CountByLabel()
	if testCounts["a"] != 3 || testCounts["b"] != 3 {
		t.Errorf("test counts = %v, want 3 per label", testCounts)
	}
	// No sample in both splits.
	inTrain := map[string]bool{}
	for _, s := range train.Samples {
		inTrain[s.ID+s.Label] = true
	}
	for _, s := range test.Samples {
		if inTrain[s.ID+s.Label] {
			t.Errorf("sample %s in both splits", s.ID)
		}
	}
	if _, _, err := d.SplitStratified(0, rng); err == nil {
		t.Error("testFrac=0 accepted")
	}
	if _, _, err := d.SplitStratified(1, rng); err == nil {
		t.Error("testFrac=1 accepted")
	}
}

func TestSplitStratifiedTinyClassesKeepTrainSample(t *testing.T) {
	d := tinyDataset(map[string]int{"a": 2})
	rng := rand.New(rand.NewSource(3))
	train, test, err := d.SplitStratified(0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() == 0 || test.Len() == 0 {
		t.Errorf("tiny class split: train=%d test=%d, both must be non-empty", train.Len(), test.Len())
	}
}

// TestAthleteOverlapNearPaper checks the headline dataset property: the
// paper measures ~35 % average same-region route overlap. The simulator
// must land in a band around that.
func TestAthleteOverlapNearPaper(t *testing.T) {
	regions := terrain.AthleteWorld()
	counts := map[string]int{
		"Washington DC": 40,
		"Orlando":       30,
	}
	acts, err := activity.SimulateAthlete(regions, counts, activity.DefaultAthleteConfig(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	ratio := FromActivities(acts).AverageOverlapRatio()
	if ratio < 0.15 || ratio > 0.60 {
		t.Errorf("average overlap ratio = %f, want within [0.15, 0.60] (paper: 0.35)", ratio)
	}
	t.Logf("average overlap ratio: %.3f (paper reports 0.35)", ratio)
}

func TestFromActivitiesAndMined(t *testing.T) {
	acts := []activity.Activity{{
		Name:       "a1",
		Region:     "Orlando",
		Path:       geo.Path{{Lat: 1, Lng: 1}, {Lat: 1.01, Lng: 1.01}},
		Elevations: []float64{1, 2},
	}}
	d := FromActivities(acts)
	if d.Len() != 1 || d.Samples[0].Label != "Orlando" {
		t.Errorf("FromActivities = %+v", d.Samples)
	}

	mined := []segments.MinedSegment{{
		ID:         "m1",
		Label:      "Miami",
		Path:       geo.Path{{Lat: 25, Lng: -80}, {Lat: 25.01, Lng: -80.01}},
		Elevations: []float64{3, 4, 5},
	}}
	d = FromMined(mined)
	if d.Len() != 1 || d.Samples[0].Label != "Miami" || len(d.Samples[0].Elevations) != 3 {
		t.Errorf("FromMined = %+v", d.Samples)
	}
}

func TestAverageOverlapRatio(t *testing.T) {
	// Two identical paths in one label: ratio 1. A third sample in another
	// label far away contributes no pair.
	p := geo.Path{{Lat: 1, Lng: 1}, {Lat: 1.05, Lng: 1.05}}
	d := &Dataset{Samples: []Sample{
		{ID: "1", Label: "x", Path: p, Elevations: []float64{1, 2, 3, 4}},
		{ID: "2", Label: "x", Path: p.Clone(), Elevations: []float64{1, 2, 3, 4}},
		{ID: "3", Label: "y", Path: geo.Path{{Lat: 5, Lng: 5}, {Lat: 5.01, Lng: 5.01}}, Elevations: []float64{1, 2, 3, 4}},
	}}
	if r := d.AverageOverlapRatio(); math.Abs(r-1) > 1e-12 {
		t.Errorf("ratio = %f, want 1", r)
	}
	if r := (&Dataset{}).AverageOverlapRatio(); r != 0 {
		t.Errorf("empty ratio = %f", r)
	}
}

func TestSimulateOverlapGrowsClassesAndRatio(t *testing.T) {
	cfg := DefaultBuildConfig()
	cfg.Scale = 0.02
	cfg.MinPerClass = 15
	cfg.ProfileSamples = 40
	base, err := BuildCityLevel(worldForTest(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	sim, err := SimulateOverlap(base, DefaultOverlapConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}

	baseCounts := base.CountByLabel()
	simCounts := sim.CountByLabel()
	for label, n := range baseCounts {
		want := n + int(float64(n)*0.30+0.5)
		if simCounts[label] != want {
			t.Errorf("%s: %d samples after sim, want %d", label, simCounts[label], want)
		}
	}

	if rBase, rSim := base.AverageOverlapRatio(), sim.AverageOverlapRatio(); rSim <= rBase {
		t.Errorf("overlap ratio did not increase: %f -> %f", rBase, rSim)
	}

	// Source dataset untouched.
	if base.Len() >= sim.Len() {
		t.Error("simulation did not grow the dataset")
	}
}

func TestSimulateOverlapValidation(t *testing.T) {
	d := tinyDataset(map[string]int{"a": 3})
	rng := rand.New(rand.NewSource(5))
	bad := DefaultOverlapConfig()
	bad.ExtraFrac = -1
	if _, err := SimulateOverlap(d, bad, rng); err == nil {
		t.Error("negative ExtraFrac accepted")
	}
	bad = DefaultOverlapConfig()
	bad.MinKeepFrac = 0
	if _, err := SimulateOverlap(d, bad, rng); err == nil {
		t.Error("MinKeepFrac 0 accepted")
	}
	// Too-short profiles are rejected.
	short := &Dataset{Samples: []Sample{
		{ID: "s1", Label: "a", Elevations: []float64{1, 2}},
		{ID: "s2", Label: "a", Elevations: []float64{1, 2}},
		{ID: "s3", Label: "a", Elevations: []float64{1, 2}},
		{ID: "s4", Label: "a", Elevations: []float64{1, 2}},
	}}
	if _, err := SimulateOverlap(short, DefaultOverlapConfig(), rng); err == nil {
		t.Error("2-value profile accepted for perturbation")
	}
}

func TestPerturbCopyCropsWithinSource(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := Sample{ID: "s", Label: "a", Elevations: []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}
	cfg := DefaultOverlapConfig()
	cfg.ElevationNoise = 0 // exact values for verification
	for k := 0; k < 20; k++ {
		dup, err := perturbCopy(src, k, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(dup.Elevations) < 8 || len(dup.Elevations) > 10 {
			t.Errorf("crop length %d outside [8,10]", len(dup.Elevations))
		}
		if dup.Label != "a" {
			t.Errorf("label = %q", dup.Label)
		}
		// Values must be a contiguous window of the source.
		first := dup.Elevations[0]
		start := int(first/10) - 1
		for i, v := range dup.Elevations {
			if math.Abs(v-src.Elevations[start+i]) > 1e-12 {
				t.Fatalf("dup not a contiguous window at %d", i)
			}
		}
	}
}
