// Command elevbench is the repository's benchmark. It drives the three
// paths the paper's adversary runs — labelling live shared workouts
// (TM-1), sweeping fitness and elevation web services for profiles
// (TM-2/TM-3), and training and evaluating the TM-1 model — as four
// workloads, checks every output, and prints each metric by name and
// unit. The workload seed is the only source of inputs.
//
// Usage:
//
//	elevbench -workload live-chunked -seed 17 -seconds 25 -trace 0
//	elevbench -out runs.json                        # every workload, one child process each
//	elevbench -trace 1 -trace-out trace.json        # untraced and traced runs, tracing overhead
//	elevbench -compare parent.json change.json      # verdict per workload and metric
//
// With -workload the run happens in this process and the last line printed
// is the one-line JSON result {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. Without -workload the command re-executes itself once per
// workload, so memory, the metrics registry and GC state are measured per
// workload. README.md lists the workloads, metrics and layers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what a workload run is told.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	// quick shrinks every workload to a seconds-long smoke run.
	quick bool
	// traceOut, when set, receives the traced run's Chrome trace.
	traceOut string
	// stateDir holds the run's files (ingest journals); removed afterwards.
	stateDir string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg runConfig, r *record) error
}

var workloads = []workload{
	{"live-chunked", "20-line NDJSON POSTs at 4k activities/s: per-activity work (decode, intake append, batched featurize+predict) dominates",
		func(ctx context.Context, cfg runConfig, r *record) error { return runLive(ctx, cfg, liveChunked, r) }},
	{"live-single", "1-line POSTs at 800/s, 1 in 4 a re-upload: per-request cost (HTTP front door, Harden, one fsync per POST) dominates",
		func(ctx context.Context, cfg runConfig, r *record) error { return runLive(ctx, cfg, liveSingle, r) }},
	{"mine-sweep", "pooled 4-shard mining sweep: HTTP round trips and DEM sampling, cold and warm profile cache, no ingest or ML",
		runMine},
	{"tm1-model", "Table I dataset, 5-fold MLP cross-validation plus TrainTextAttack: CPU-bound textrep, ml and eval, no I/O",
		runTM1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elevbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but failed a check or is
// invalid: its result is printed, and the exit status is non-zero.
var errIncorrect = errors.New("run failed its checks or is invalid")

func run() error {
	var (
		name     = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed     = flag.Int64("seed", 17, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 25, "measured seconds per workload run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics (with -workload); all-mode runs untraced then traced")
		traceOut = flag.String("trace-out", "", "write the traced run's Chrome trace here (all-mode inserts the workload name)")
		out      = flag.String("out", "", "append each run's full JSON record to this file")
		quick    = flag.Bool("quick", false, "seconds-long smoke run with small inputs (not a measurement)")
		compare  = flag.Bool("compare", false, "compare two record files: elevbench -compare parent.json change.json")
		bench    = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound (for -compare)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		return compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, traceOut: *traceOut}
	if cfg.quick {
		cfg.seconds = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "" {
		return runAll(ctx, cfg, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	r, err := runOne(ctx, w, cfg, filepath.Join(".bench_build", "state"))
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	if *out != "" {
		if err := appendRecord(*out, r); err != nil {
			return err
		}
	}
	line, err := r.summary()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.correct() {
		return errIncorrect
	}
	return nil
}

// runDeadline bounds one workload run, so a wedged run fails instead of
// hanging.
const runDeadline = 170 * time.Second

// runOne runs workload w in this process, keeping its files in a fresh
// directory under stateRoot.
func runOne(ctx context.Context, w workload, cfg runConfig, stateRoot string) (*record, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	dir, err := filepath.Abs(filepath.Join(stateRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.stateDir = dir

	r := newRecord(w.name, cfg)
	r.Env = environment(dir)
	if err := w.run(ctx, cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if _, ok := r.Detail["peak_rss_mb"]; !ok {
		r.detail("peak_rss_mb", peakRSSMB(), "MB")
	}
	r.finish()
	return r, nil
}

// runAll re-executes this command once per workload (and, with -trace 1,
// once more traced), then prints the end-to-end table and the tracing
// overhead.
func runAll(ctx context.Context, cfg runConfig, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		f, err := os.CreateTemp(".bench_build", "records-*.json")
		if err != nil {
			return err
		}
		out = f.Name()
		f.Close()
		defer os.Remove(out)
	}
	modes := []bool{false}
	if cfg.trace {
		modes = append(modes, true)
	}
	failed := false
	for _, w := range workloads {
		for _, traced := range modes {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-out", out, "-trace", "0"}
			if traced {
				args[len(args)-1] = "1"
				if cfg.traceOut != "" {
					ext := filepath.Ext(cfg.traceOut)
					args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ext)+"-"+w.name+ext)
				}
			}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "elevbench: %s: %v\n", w.name, err)
				failed = true
			}
		}
	}
	recs, err := readRecords(out)
	if err != nil {
		return err
	}
	printOverview(os.Stdout, recs)
	if failed {
		return errIncorrect
	}
	return nil
}

// printOverview prints the end-to-end metrics of every workload and, where
// a traced run exists, how much tracing changed each.
func printOverview(w io.Writer, recs []*record) {
	fmt.Fprintf(w, "\n%-14s %-16s %14s %14s %10s\n", "workload", "metric", "untraced", "traced", "overhead")
	for _, wl := range workloads {
		var plain, traced *record
		for _, r := range recs {
			if r.Workload == wl.name && r.Trace {
				traced = r
			} else if r.Workload == wl.name {
				plain = r
			}
		}
		if plain == nil {
			continue
		}
		for _, d := range endToEnd {
			v := plain.Metrics[d.name]
			line := fmt.Sprintf("%-14s %-16s %14.4f", wl.name, d.name, v.Value)
			if traced != nil {
				t := traced.Metrics["traced."+d.name]
				line += fmt.Sprintf(" %14.4f %+9.1f%%", t.Value, 100*(t.Value-v.Value)/v.Value)
			}
			fmt.Fprintf(w, "%s %s\n", line, d.unit)
		}
	}
}
