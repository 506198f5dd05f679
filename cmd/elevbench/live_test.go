package main

import (
	"bytes"
	"testing"
	"time"

	"elevprivacy/internal/ingest"
)

// TestMatcherPairsRepeatedProfilesInOrder sends two activities with the
// same profile: rows are told apart only by the profile, so the first row
// classified must be charged to the first activity sent.
func TestMatcherPairsRepeatedProfilesInOrder(t *testing.T) {
	m := newMatcher(3, false)
	same := []float64{10, 11, 12}
	other := []float64{5, 6}
	t0 := m.epoch.Add(time.Second)
	m.register(0, profileHash(same), "a", t0)
	m.register(1, profileHash(other), "b", t0.Add(time.Millisecond))
	m.register(2, profileHash(same), "c", t0.Add(2*time.Millisecond))

	m.classifiedBatch([][]float64{append([]float64(nil), same...)}, t0.Add(10*time.Millisecond), t0.Add(11*time.Millisecond))
	m.classifiedBatch([][]float64{other, same}, t0.Add(20*time.Millisecond), t0.Add(22*time.Millisecond))

	want := []time.Duration{11 * time.Millisecond, 22 * time.Millisecond, 22 * time.Millisecond}
	for k, w := range want {
		if got := m.classEnd[k] - t0.Sub(m.epoch); got != w {
			t.Errorf("activity %d classified at +%v, want +%v", k, got, w)
		}
	}
	if m.classified != 3 || m.unmatched != 0 {
		t.Errorf("classified %d, unmatched %d; want 3, 0", m.classified, m.unmatched)
	}
	m.classifiedBatch([][]float64{same}, t0, t0)
	if m.unmatched != 1 {
		t.Errorf("a row no activity is waiting for must count as unmatched")
	}
}

// TestStreamLinesMatchEncodeLine checks the spliced lines against the
// encoder the offline baseline and real clients use, across cycles.
func TestStreamLinesMatchEncodeLine(t *testing.T) {
	s, err := newStream(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 7, 8, 21} {
		it := s.item(k)
		want, err := ingest.EncodeLine(ingest.Envelope{ID: s.id(k), Region: it.region, Elevations: it.elevs})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.appendLine(nil, k); !bytes.Equal(got, want) {
			t.Errorf("activity %d: %s, want %s", k, got, want)
		}
	}
	if s.id(3) == s.id(11) {
		t.Errorf("cycles must re-identify activities: %s", s.id(3))
	}
}

// TestPlanOpenRetries checks the live-single mix: one POST in four
// re-uploads an activity due at least retryAge before it, once any is.
func TestPlanOpenRetries(t *testing.T) {
	posts, activities := planOpen(liveSingle, 5*time.Second, 17)
	if len(posts) != 4000 {
		t.Fatalf("%d posts, want 4000", len(posts))
	}
	dueOf := map[int]time.Duration{}
	retries := 0
	for j, p := range posts {
		if !p.retry {
			dueOf[p.first] = p.due
			continue
		}
		retries++
		if j%4 != 3 {
			t.Fatalf("post %d is a retry outside the one-in-four slot", j)
		}
		if d, ok := dueOf[p.first]; !ok || p.due-d < retryAge {
			t.Fatalf("post %d re-uploads activity %d due %v before it", j, p.first, p.due-d)
		}
	}
	// No retry can happen in the first second.
	if want := (4000 - 800) / 4; retries != want {
		t.Errorf("%d retries, want %d", retries, want)
	}
	if activities != 4000-retries {
		t.Errorf("%d activities for %d new posts", activities, 4000-retries)
	}
}
