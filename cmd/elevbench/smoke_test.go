package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestQuickSmoke runs every workload at smoke scale, untraced and traced:
// each must pass its own checks and report every metric of its mode.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runOne(context.Background(), w, runConfig{seed: 5, seconds: 1, quick: true, trace: traced}, t.TempDir())
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s (traced %v): checks %+v, invalid %v, failed %d", w.name, traced, r.Checks, r.Invalid, r.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			if !traced {
				for _, d := range endToEnd {
					if v := r.Metrics[d.name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v)
					}
				}
			}
			var summary map[string]json.RawMessage
			line, err := r.summary()
			if err == nil {
				err = json.Unmarshal(line, &summary)
			}
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(summary))
			for k := range summary {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := len(keys); got != 4 || keys[0] != "attempted" || keys[1] != "correct" || keys[2] != "failed" || keys[3] != "metrics" {
				t.Errorf("summary keys %v", keys)
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, at the
// repository root, in step with the workloads and metrics defined here.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/elevbench" {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: %s %s, want %s %s", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if bounded {
				if better := map[bool]string{true: "higher", false: "lower"}[d.higher]; m.Better != better {
					t.Errorf("%s: better %q, want %q", m.Name, m.Better, better)
				}
				if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
					t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
				}
			} else if m.Bound != nil {
				t.Errorf("%s: per-layer metrics have no bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
