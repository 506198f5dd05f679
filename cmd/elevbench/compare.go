package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges a change's runs against its parent's.
type verdict string

const (
	within     verdict = "within"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// judge compares parent runs a with change runs b. The change is worse
// when its median is worse than the parent's by more than bound (a share
// of the parent's median), and unresolved when the parent's own spread —
// the distance between its quartiles, as a share of its median — exceeds
// the bound, unless every run of the change beats every run of the
// parent. It is better when its median gains more than that spread and
// it wins at least nine in ten of all pairs of runs.
func judge(a, b []float64, bound float64, higher bool) verdict {
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	spread := (q3 - q1) / math.Abs(ma)
	change := (mb - ma) / math.Abs(ma) // positive is worse
	if higher {
		change = -change
	}
	wins, pairs := 0, 0
	for _, x := range a {
		for _, y := range b {
			pairs++
			if (higher && y > x) || (!higher && y < x) {
				wins++
			}
		}
	}
	switch {
	case spread > bound && wins == pairs:
		return better
	case spread > bound:
		return unresolved
	case change > bound:
		return worse
	case -change > spread && 10*wins >= 9*pairs:
		return better
	}
	return within
}

// compareFiles prints, for each workload and end-to-end metric, the
// medians and quartiles of two record files and the verdict. It fails
// when any metric is worse.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) error {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(blob, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-15s %30s %30s %8s %7s %6s  %s\n",
		"workload", "metric", "parent median [Q1 Q3]", "change median [Q1 Q3]", "change", "spread", "bound", "verdict")
	counts := map[verdict]int{}
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			av, bv := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Bound, m.Better == "higher")
			counts[v]++
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			fmt.Fprintf(w, "%-13s %-15s %10.4g [%8.4g %8.4g] %10.4g [%8.4g %8.4g] %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, am, aq1, aq3, bm, bq1, bq3,
				100*(bm-am)/math.Abs(am), 100*(aq3-aq1)/math.Abs(am), 100*m.Bound, v)
		}
	}
	fmt.Fprintf(w, "within %d, better %d, worse %d, unresolved %d\n",
		counts[within], counts[better], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return fmt.Errorf("%d metrics worse than the parent by more than their bound", counts[worse])
	}
	return nil
}

// values collects one metric of one workload across untraced runs.
func values(recs []*record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
