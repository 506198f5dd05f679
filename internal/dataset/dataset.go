// Package dataset defines the labeled elevation-profile datasets the attack
// pipeline trains on, with the operations the paper's evaluation needs:
// per-class balancing, train/test splitting, overlap measurement (IoU of
// tight rectangles), and the overlap simulation of §IV-A1.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"elevprivacy/internal/activity"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/segments"
)

// Sample is one labeled elevation profile.
type Sample struct {
	// ID identifies the source activity or segment.
	ID string
	// Label is the class (region, city, or borough name).
	Label string
	// Elevations is the elevation profile.
	Elevations []float64
	// Path is the source trajectory when known; used only for dataset
	// statistics (overlap ratio), never as a classification feature.
	Path geo.Path
}

// Dataset is an ordered collection of samples.
type Dataset struct {
	Samples []Sample
}

// FromActivities converts athlete activities into a dataset.
func FromActivities(acts []activity.Activity) *Dataset {
	d := &Dataset{Samples: make([]Sample, 0, len(acts))}
	for i := range acts {
		d.Samples = append(d.Samples, Sample{
			ID:         acts[i].Name,
			Label:      acts[i].Region,
			Elevations: acts[i].Elevations,
			Path:       acts[i].Path,
		})
	}
	return d
}

// FromMined converts miner output into a dataset.
func FromMined(mined []segments.MinedSegment) *Dataset {
	d := &Dataset{Samples: make([]Sample, 0, len(mined))}
	for i := range mined {
		d.Samples = append(d.Samples, Sample{
			ID:         mined[i].ID,
			Label:      mined[i].Label,
			Elevations: mined[i].Elevations,
			Path:       mined[i].Path,
		})
	}
	return d
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// Labels returns the distinct labels in sorted order.
func (d *Dataset) Labels() []string {
	seen := map[string]bool{}
	for i := range d.Samples {
		seen[d.Samples[i].Label] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// CountByLabel returns per-label sample counts.
func (d *Dataset) CountByLabel() map[string]int {
	out := map[string]int{}
	for i := range d.Samples {
		out[d.Samples[i].Label]++
	}
	return out
}

// indexByLabel returns per-label sample indices in dataset order.
func (d *Dataset) indexByLabel() map[string][]int {
	out := map[string][]int{}
	for i := range d.Samples {
		out[d.Samples[i].Label] = append(out[d.Samples[i].Label], i)
	}
	return out
}

// Clone deep-copies the dataset (elevations and paths included).
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Samples: make([]Sample, len(d.Samples))}
	for i, s := range d.Samples {
		cp := s
		cp.Elevations = append([]float64(nil), s.Elevations...)
		cp.Path = s.Path.Clone()
		out.Samples[i] = cp
	}
	return out
}

// Filter returns the subset carrying any of the given labels, in order.
func (d *Dataset) Filter(labels ...string) *Dataset {
	want := map[string]bool{}
	for _, l := range labels {
		want[l] = true
	}
	out := &Dataset{}
	for i := range d.Samples {
		if want[d.Samples[i].Label] {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// Balanced returns a new dataset with exactly perClass random samples of
// every label, mirroring the paper's bias mitigation ("we use the same
// sample size for each class"). Labels with fewer than perClass samples are
// an error.
func (d *Dataset) Balanced(perClass int, rng *rand.Rand) (*Dataset, error) {
	if perClass <= 0 {
		return nil, fmt.Errorf("dataset: perClass must be positive, got %d", perClass)
	}
	byLabel := d.indexByLabel()
	labels := d.Labels()

	out := &Dataset{}
	for _, label := range labels {
		idx := byLabel[label]
		if len(idx) < perClass {
			return nil, fmt.Errorf("dataset: label %q has %d samples, need %d", label, len(idx), perClass)
		}
		perm := rng.Perm(len(idx))
		for _, k := range perm[:perClass] {
			out.Samples = append(out.Samples, d.Samples[idx[k]])
		}
	}
	return out, nil
}

// SplitStratified splits the dataset into train/test with testFrac of every
// class in the test split (at least one test sample per class when the
// class is non-empty and testFrac > 0).
func (d *Dataset) SplitStratified(testFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: testFrac must be in (0,1), got %g", testFrac)
	}
	train = &Dataset{}
	test = &Dataset{}
	byLabel := d.indexByLabel()
	for _, label := range d.Labels() {
		idx := byLabel[label]
		perm := rng.Perm(len(idx))
		nTest := int(float64(len(idx)) * testFrac)
		if nTest == 0 {
			nTest = 1
		}
		if nTest >= len(idx) {
			nTest = len(idx) - 1
		}
		for i, k := range perm {
			if i < nTest {
				test.Samples = append(test.Samples, d.Samples[idx[k]])
			} else {
				train.Samples = append(train.Samples, d.Samples[idx[k]])
			}
		}
	}
	return train, test, nil
}

// AverageOverlapRatio is the mean IoU of tight rectangles over all
// same-label sample pairs (the paper's dataset statistic). Samples without
// paths are skipped.
func (d *Dataset) AverageOverlapRatio() float64 {
	byLabel := map[string][]geo.BBox{}
	for i := range d.Samples {
		if b, ok := d.Samples[i].Path.Bounds(); ok {
			byLabel[d.Samples[i].Label] = append(byLabel[d.Samples[i].Label], b)
		}
	}
	var sum float64
	var pairs int
	for _, boxes := range byLabel {
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				sum += boxes[i].IoU(boxes[j])
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}
