package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"same runs", parent, parent, false, within},
		{"slightly slower", parent, scale(parent, 1.05), false, within},
		{"much slower", parent, scale(parent, 1.2), false, worse},
		{"much faster", parent, scale(parent, 0.8), false, better},
		{"throughput fell", parent, scale(parent, 0.8), true, worse},
		{"throughput rose", parent, scale(parent, 1.2), true, better},
		{"parent too noisy", noisy, scale(noisy, 1.05), false, unresolved},
		{"noisy but every run faster", noisy, scale(parent, 0.5), false, better},
	} {
		if got := judge(tc.a, tc.b, 0.1, tc.higher); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesFailsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, main float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			r := &record{Workload: "tm1-model", Metrics: map[string]value{
				"main_p50_ms": {Value: main + float64(i%2), Unit: "ms"},
			}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"main_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compareFiles(&out, bench, write("a.json", 100), write("b.json", 101)); err != nil {
		t.Fatalf("within bound: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within") {
		t.Errorf("missing verdict:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, bench, write("c.json", 100), write("d.json", 150)); err == nil {
		t.Errorf("50%% slower passed:\n%s", out.String())
	}
}
