package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesDefinitions keeps them in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better (end-to-end metrics only)
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the untraced run. main and aux name each workload's two
// timed operations (see README.md):
//
//	workload       main                          aux
//	live-*         activity due → its prediction POST due → HTTP 200
//	mine-sweep     cold sweep of four classes    warm re-sweep
//	tm1-model      CrossValidateText run         TrainTextAttack run
//
// alloc_kb_per_op is the heap the process allocates per main operation
// while measuring. It stands for memory: the peak resident set, reported
// as a detail, moves by half between identical runs with the GC's timing.
// The live workloads' closed-loop capacity is a detail too: on a shared
// host it moves with the host's speed by more than any bound allows.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "main_p50_ms", unit: "ms"},
	{name: "aux_p50_ms", unit: "ms"},
	{name: "alloc_kb_per_op", unit: "KB"},
}

// perLayer are the traced run's metrics, named <layer>.<quantity> after the
// repository's modules. A workload that never calls a layer reports 0 for
// it. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{name: "httpx.front_us_p50", unit: "us"},
	{name: "httpx.rejected", unit: "count"},
	{name: "httpx.pool_attempts", unit: "count"},
	{name: "httpx.pool_failovers", unit: "count"},
	{name: "httpx.net_us_p50", unit: "us"},
	{name: "ingest.handler_us_p50", unit: "us"},
	{name: "ingest.decode_us_per_line", unit: "us/line"},
	{name: "ingest.accept_us_per_line", unit: "us/line"},
	{name: "ingest.sync_us_p50", unit: "us"},
	{name: "ingest.spool_wait_ms_p50", unit: "ms"},
	{name: "ingest.spool_wait_ms_p99", unit: "ms"},
	{name: "ingest.batch_rows_p50", unit: "rows"},
	{name: "ingest.batches", unit: "count"},
	{name: "ingest.duplicates", unit: "count"},
	{name: "ingest.ack_p99_ms", unit: "ms"},
	{name: "durable.appends_per_activity", unit: "ratio"},
	{name: "durable.fsyncs_per_activity", unit: "ratio"},
	{name: "durable.fsync_us_mean", unit: "us"},
	{name: "elevprivacy.classify_us_per_row", unit: "us/row"},
	{name: "elevprivacy.classify_busy_share", unit: "ratio"},
	{name: "textrep.featurize_us_per_row", unit: "us/row"},
	{name: "textrep.build_ms", unit: "ms"},
	{name: "ml.predict_us_per_row", unit: "us/row"},
	{name: "ml.fit_dense_s", unit: "s"},
	{name: "ml.fit_sparse_s", unit: "s"},
	{name: "eval.score_ms", unit: "ms"},
	{name: "eval.other_ms", unit: "ms"},
	{name: "dataset.build_ms", unit: "ms"},
	{name: "segments.explore_calls", unit: "count"},
	{name: "segments.explore_rtt_ms_p50", unit: "ms"},
	{name: "segments.server_us_p50", unit: "us"},
	{name: "segments.explore_phase_ms", unit: "ms"},
	{name: "segments.elevation_phase_ms", unit: "ms"},
	{name: "elevsvc.profile_calls_cold", unit: "count"},
	{name: "elevsvc.profile_calls_warm", unit: "count"},
	{name: "elevsvc.profile_rtt_ms_p50_cold", unit: "ms"},
	{name: "elevsvc.profile_rtt_ms_p50_warm", unit: "ms"},
	{name: "elevsvc.server_us_p50_cold", unit: "us"},
	{name: "elevsvc.server_us_p50_warm", unit: "us"},
	{name: "serving.profile_hit_ratio_cold", unit: "ratio"},
	{name: "serving.profile_hit_ratio_warm", unit: "ratio"},
	{name: "dem.samples", unit: "count"},
	{name: "dem.sample_ns", unit: "ns"},
	{name: "cover.result_share", unit: "ratio"},
	{name: "cover.handler_share", unit: "ratio"},
	{name: "trace.spans", unit: "count"},
	{name: "trace.dropped_spans", unit: "count"},
	{name: "traced.setup_s", unit: "s"},
	{name: "traced.main_p50_ms", unit: "ms"},
	{name: "traced.aux_p50_ms", unit: "ms"},
	{name: "traced.alloc_kb_per_op", unit: "KB"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness gate; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one workload run measured. The last line the
// command prints is summary(); -out appends the whole record.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Quick marks a smoke run, whose sample counts are too small for the
	// validity rules.
	Quick     bool  `json:"quick,omitempty"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Metrics holds the end-to-end metrics (untraced run) or the per-layer
	// ones (traced run).
	Metrics map[string]value `json:"metrics"`
	// Detail holds diagnostics that are not gated: tail percentiles,
	// generator lateness, live accuracy.
	Detail map[string]value `json:"detail"`
	// Samples is the sample count behind each reported percentile.
	Samples map[string]int `json:"samples"`
	Checks  []check        `json:"checks"`
	// Invalid lists why the run's numbers cannot be trusted; empty is valid.
	Invalid []string `json:"invalid,omitempty"`
	// Layers is the traced run's per-layer table.
	Layers []layerRow `json:"layers,omitempty"`
	Env    envBlock   `json:"env"`

	setups dist // set-up durations; setup_s is their median
}

func newRecord(workload string, cfg runConfig) *record {
	return &record{
		Workload: workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Quick:    cfg.quick,
		Metrics:  map[string]value{},
		Detail:   map[string]value{},
		Samples:  map[string]int{},
	}
}

func (r *record) set(name string, v float64, unit string) {
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *record) detail(name string, v float64, unit string) {
	r.Detail[name] = value{Value: v, Unit: unit}
}

// timeSetup times one set-up and reports the median of every set-up so far
// as setup_s.
func (r *record) timeSetup(f func() error) error {
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	r.setups.addDur(time.Since(start))
	r.set("setup_s", r.setups.q(0.5)/1e9, "s")
	r.Samples["setup_s"] = r.setups.n()
	return nil
}

// attempt counts n operations, failed of which failed or were refused.
func (r *record) attempt(n, failed int) {
	r.Attempted += int64(n)
	r.Failed += int64(failed)
}

// check records a correctness gate, counting it as one attempted operation.
func (r *record) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	fail := 0
	if !ok {
		fail = 1
	}
	r.attempt(1, fail)
}

// quantile returns quantile q of d divided by div (nanoseconds to the
// reported unit) and records the sample count behind the value reported
// as name. A tail percentile with fewer than minBeyond samples beyond it
// makes the run invalid.
func (r *record) quantile(name string, d *dist, q, div float64) float64 {
	r.Samples[name] = d.n()
	if q > 0.5 && beyond(d.n(), q) < minBeyond && !r.Quick {
		r.Invalid = append(r.Invalid, fmt.Sprintf("%s rests on %d samples, %d beyond it (need %d)",
			name, d.n(), beyond(d.n(), q), minBeyond))
	}
	return d.q(q) / div
}

// tail reports the median of d and its highest percentile with at least
// minBeyond samples beyond it, in milliseconds, as details.
func (r *record) tail(prefix string, d *dist) {
	name := prefix + "_p50_ms"
	r.detail(name, r.quantile(name, d, 0.5, 1e6), "ms")
	if q := tailQuantile(d.n()); q > 0 {
		name = fmt.Sprintf("%s_p%s_ms", prefix, strconv.FormatFloat(100*q, 'f', -1, 64))
		r.detail(name, r.quantile(name, d, q, 1e6), "ms")
	}
}

// correct reports whether the run passed: every check held, no operation
// failed, and the numbers are valid.
func (r *record) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0 && len(r.Invalid) == 0
}

// finish fills in every metric the run's mode must report: those the
// workload did not measure (a layer it never calls) read 0. A traced run
// reports its end-to-end values as traced.<name>, for the tracing
// overhead. A metric the mode does not report is moved to Detail.
func (r *record) finish() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.name]; ok {
				r.Metrics["traced."+d.name] = v
				delete(r.Metrics, d.name)
			}
		}
	}
	finite := func(v value) bool { return !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) }
	keep := map[string]value{}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || !finite(v) {
			v = value{Value: 0, Unit: d.unit}
		}
		keep[d.name] = v
	}
	for name, v := range r.Metrics {
		if _, ok := keep[name]; !ok {
			r.Detail[name] = v
		}
	}
	r.Metrics = keep
	// A detail over an empty sample has no value to record.
	for name, v := range r.Detail {
		if !finite(v) {
			delete(r.Detail, name)
		}
	}
}

// summary is the one-line result printed last, for programs that run the
// benchmark: whether the run passed, the operation counts and the metrics
// of the run's mode.
func (r *record) summary() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
}

// print writes the human-readable report: metrics, details, checks and the
// layer table.
func (r *record) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d s) on %s, GOMAXPROCS %d, %s\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Env.CPU, r.Env.GOMAXPROCS, r.Env.GoVersion)
	printValues(w, r.Metrics, r.Samples)
	printValues(w, r.Detail, r.Samples)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %s %s\n", status, c.Name, c.Detail)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "   INVALID %s\n", why)
	}
	if len(r.Layers) > 0 {
		printLayers(w, r.Layers)
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.correct())
}

func printValues(w io.Writer, vs map[string]value, samples map[string]int) {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := vs[n]
		line := fmt.Sprintf("   %-34s %14.4f %s", n, v.Value, v.Unit)
		if s, ok := samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// appendRecord appends r as one JSON line to path.
func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(blob, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// readRecords loads every record of a JSON-lines file.
func readRecords(path string) ([]*record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*record
	for i, line := range strings.Split(string(blob), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		r := &record{}
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
