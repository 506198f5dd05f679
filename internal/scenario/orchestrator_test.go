package scenario

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"elevprivacy/internal/durable"
)

// miningSpec is a small tm3 sweep whose two scenarios share one mine config
// (identical city model / population / grid / samples / seed) and differ only
// in defense — the canonical dedup shape.
func miningSpec(rps float64) *Spec {
	return &Spec{
		Name:      "test-sweep",
		RateLimit: rps,
		Workers:   2,
		Scenarios: []Scenario{
			{Name: "plain", Cities: []string{"SF", "LA"}, Population: 8, Grid: 2,
				Samples: 16, NGram: 4, MaxFeatures: 128, Folds: 2, Seed: 7},
			{Name: "quantized", Cities: []string{"SF", "LA"}, Population: 8, Grid: 2,
				Samples: 16, NGram: 4, MaxFeatures: 128, Folds: 2, Seed: 7,
				Defense: DefenseQuantize, DefenseStrength: 10},
		},
	}
}

func openRunState(t *testing.T, dir string, resume bool) (*durable.Journal, *Cache) {
	t.Helper()
	path := filepath.Join(dir, "scenario.journal")
	if !resume {
		path = filepath.Join(dir, "scenario-fresh-"+t.Name()+".journal")
	}
	j, err := durable.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	cache, err := OpenCache(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	return j, cache
}

// Two scenarios sharing a mining config must produce exactly one mined
// artifact: one mine unit in the DAG, one environment (one set of HTTP
// sweeps), and cache hits for every downstream consumer. A second run over
// the same cache recomputes nothing and issues zero HTTP calls.
func TestDedupSharedMine(t *testing.T) {
	dir := t.TempDir()
	spec := miningSpec(0)
	j, cache := openRunState(t, dir, false)
	orch, err := New(spec, Options{Journal: j, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// 2 scenarios x 4 stages, minus the shared mine unit.
	if got := orch.Units(); got != 7 {
		t.Fatalf("Units() = %d, want 7 (shared mine deduped)", got)
	}

	envBefore := envStarts.Load()
	hitsBefore := cacheHits.Value()
	result, sweepErr := orch.Run(context.Background())
	if sweepErr != nil {
		t.Fatalf("sweep failed: %v", sweepErr)
	}
	if got := envStarts.Load() - envBefore; got != 1 {
		t.Errorf("mining environments started = %d, want exactly 1 for the shared config", got)
	}
	if result.HTTPAttempts == 0 {
		t.Error("expected the shared mine to issue HTTP calls")
	}
	if result.Cache.Hits == 0 {
		t.Error("downstream consumers of the shared artifact registered no cache hits")
	}
	if got := cacheHits.Value() - hitsBefore; got == 0 {
		t.Error("elevpriv_scenario_cache_hits_total did not move")
	}
	for _, sr := range result.Scenarios {
		if sr.Status != "done" || sr.Metrics == nil {
			t.Errorf("scenario %s: status=%s metrics=%v", sr.Name, sr.Status, sr.Metrics)
		}
	}

	// Same cache, fresh journal: everything is served from the cache — zero
	// new environments, zero HTTP attempts, identical metrics.
	j2path := filepath.Join(dir, "second.journal")
	j2, err := durable.OpenJournal(j2path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	orch2, err := New(miningSpec(0), Options{Journal: j2, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	envBefore = envStarts.Load()
	result2, sweepErr2 := orch2.Run(context.Background())
	if sweepErr2 != nil {
		t.Fatalf("second sweep failed: %v", sweepErr2)
	}
	if got := envStarts.Load() - envBefore; got != 0 {
		t.Errorf("cache-served run started %d environments, want 0", got)
	}
	if result2.HTTPAttempts != 0 {
		t.Errorf("cache-served run issued %d HTTP attempts, want 0", result2.HTTPAttempts)
	}
	for i, sr := range result2.Scenarios {
		want := result.Scenarios[i]
		if sr.Metrics == nil || want.Metrics == nil || *sr.Metrics != *want.Metrics {
			t.Errorf("scenario %s metrics drifted across cache-served rerun: %+v vs %+v",
				sr.Name, sr.Metrics, want.Metrics)
		}
	}

	// Journal replay (same journal, third orchestrator): units restore
	// instead of re-running.
	orch3, err := New(miningSpec(0), Options{Journal: j2, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, sweepErr3 := orch3.Run(context.Background()); sweepErr3 != nil {
		t.Fatalf("journal-replay run failed: %v", sweepErr3)
	}
	for _, u := range orch3.board.Snapshot() {
		if u.State != durable.StateRestored {
			t.Errorf("unit %s state = %s, want restored on journal replay", u.Key, u.State)
		}
	}
}

// An admin cancel landing mid-run must drain gracefully: the in-flight mine
// checkpoints its cells, every scenario reports an interrupted-flavored
// outcome (SweepError.Interrupted() == true), and a resume completes the
// sweep.
func TestAdminCancelMidRunDrains(t *testing.T) {
	dir := t.TempDir()
	// Rate-limit mining so the cancel reliably lands while the mine unit is
	// in flight: a 4x4 grid issues ~32 cell queries per class, and at 5 rps
	// (burst 10) that holds the mine open for seconds.
	spec := miningSpec(5)
	for i := range spec.Scenarios {
		spec.Scenarios[i].Grid = 4
		spec.Scenarios[i].Population = 12
	}
	j, cache := openRunState(t, dir, false)
	orch, err := New(spec, Options{Journal: j, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(orch.Handler())
	defer srv.Close()

	type runResult struct {
		result   *Result
		sweepErr *SweepError
	}
	done := make(chan runResult, 1)
	go func() {
		r, e := orch.Run(context.Background())
		done <- runResult{r, e}
	}()

	// Wait until a unit is actually running, then cancel over the API.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no unit entered running state in time")
		}
		resp, err := http.Get(srv.URL + "/api/run")
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			State  string         `json:"state"`
			Counts map[string]int `json:"counts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if status.State == "running" && status.Counts["running"] > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(srv.URL+"/api/run/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}

	var rr runResult
	select {
	case rr = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
	if rr.sweepErr == nil {
		t.Fatal("canceled run reported full success — cancel landed after completion?")
	}
	if !rr.sweepErr.Interrupted() {
		t.Fatalf("SweepError.Interrupted() = false: %v", rr.sweepErr)
	}
	if !rr.result.Interrupted {
		t.Error("result not marked interrupted")
	}

	// The cancel is a drain, not a loss: resuming with the same journal,
	// cache, and checkpoint dir (and no rate limit) completes the sweep.
	// Same mine config as the canceled run, so the sub-journal's cells count.
	resumed := miningSpec(0)
	for i := range resumed.Scenarios {
		resumed.Scenarios[i].Grid = 4
		resumed.Scenarios[i].Population = 12
	}
	orch2, err := New(resumed, Options{Journal: j, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	result2, sweepErr2 := orch2.Run(context.Background())
	if sweepErr2 != nil {
		t.Fatalf("resumed run failed: %v", sweepErr2)
	}
	for _, sr := range result2.Scenarios {
		if sr.Status != "done" || sr.Metrics == nil {
			t.Errorf("resumed scenario %s: status=%s", sr.Name, sr.Status)
		}
	}
}

// Canceling one scenario skips only the units no live scenario wants: the
// shared mine still runs for the surviving scenario; the canceled scenario's
// private units are skipped with a canceled (resumable) outcome.
func TestCancelScenarioKeepsSharedUnits(t *testing.T) {
	dir := t.TempDir()
	spec := miningSpec(0)
	j, cache := openRunState(t, dir, false)
	orch, err := New(spec, Options{Journal: j, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(orch.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/scenarios/quantized/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario cancel returned %d", resp.StatusCode)
	}
	if resp, err := http.Post(srv.URL+"/api/scenarios/ghost/cancel", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown scenario cancel returned %d, want 404", resp.StatusCode)
		}
	}

	result, sweepErr := orch.Run(context.Background())
	if sweepErr == nil || !sweepErr.Interrupted() {
		t.Fatalf("sweep error = %v, want interrupted-only (the canceled scenario)", sweepErr)
	}
	byName := map[string]ScenarioResult{}
	for _, sr := range result.Scenarios {
		byName[sr.Name] = sr
	}
	if sr := byName["plain"]; sr.Status != "done" || sr.Metrics == nil {
		t.Errorf("surviving scenario = %+v, want done with metrics", sr)
	}
	if sr := byName["quantized"]; sr.Status != "canceled" {
		t.Errorf("canceled scenario status = %s, want canceled", sr.Status)
	}

	// The shared mine ran for the survivor; the canceled scenario's private
	// feat unit did not.
	plainMine := spec.Scenarios[0].mineKey()
	if u, ok := orch.board.Get(plainMine); !ok || u.State != durable.StateDone {
		t.Errorf("shared mine unit state = %v, want done", u.State)
	}
	noisedFeat := spec.Scenarios[1].featKey()
	if u, ok := orch.board.Get(noisedFeat); !ok || u.State != durable.StateCanceled {
		t.Errorf("canceled scenario's feat unit state = %v, want canceled", u.State)
	}
}

func TestAdminEndpoints(t *testing.T) {
	dir := t.TempDir()
	spec := miningSpec(0)
	j, cache := openRunState(t, dir, false)
	orch, err := New(spec, Options{Journal: j, Cache: cache, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, sweepErr := orch.Run(context.Background()); sweepErr != nil {
		t.Fatalf("sweep failed: %v", sweepErr)
	}
	srv := httptest.NewServer(orch.Handler())
	defer srv.Close()

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}

	var run RunStatus
	if code := getJSON("/api/run", &run); code != http.StatusOK {
		t.Fatalf("GET /api/run = %d", code)
	}
	if run.State != "done" || run.Units != 7 || len(run.Scenarios) != 2 {
		t.Errorf("run status = %+v", run)
	}
	if run.Counts[durable.StateDone] != 7 {
		t.Errorf("counts = %v, want 7 done", run.Counts)
	}

	var st ScenarioStatus
	if code := getJSON("/api/scenarios/plain", &st); code != http.StatusOK {
		t.Fatalf("GET /api/scenarios/plain = %d", code)
	}
	if st.Name != "plain" || len(st.Units) != 4 {
		t.Errorf("scenario status = %+v, want 4 stage units", st)
	}
	var errBody map[string]string
	if code := getJSON("/api/scenarios/ghost", &errBody); code != http.StatusNotFound {
		t.Errorf("GET unknown scenario = %d, want 404", code)
	}

	var units []durable.UnitSnapshot
	if code := getJSON("/api/units", &units); code != http.StatusOK || len(units) != 7 {
		t.Errorf("GET /api/units = %d with %d units, want 200/7", code, len(units))
	}
	var cs CacheStats
	if code := getJSON("/api/cache", &cs); code != http.StatusOK || cs.Puts == 0 {
		t.Errorf("GET /api/cache = %d, stats %+v", code, cs)
	}
}
