// Command experiments regenerates the paper's tables and figures on the
// synthetic world and prints them as aligned text — and, with -spec, runs a
// declarative multi-scenario sweep through the scenario orchestrator.
//
// Usage:
//
//	experiments                  # run everything at the default scale
//	experiments -quick           # smoke-scale run (minutes)
//	experiments -run tm3-text    # one experiment by name
//	experiments -list            # list experiment names
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -checkpoint dir  # per-experiment checkpoints
//	experiments -checkpoint dir -resume   # replay finished tables, compute the rest
//
//	experiments -spec examples/scenarios/sweep.json -checkpoint dir
//	experiments -spec sweep.json -checkpoint dir -admin-addr :8089
//	experiments -spec sweep.json -checkpoint dir -resume -out results.json
//
// With -checkpoint, every finished experiment's table is journaled under a
// key bound to the exact configuration; -resume replays those tables
// byte-identically and only computes what is missing. SIGINT/SIGTERM lets
// the experiment in flight finish, flushes the journal, and exits 0 with a
// partial summary; a second signal aborts.
//
// With -spec, the file's scenarios expand into a DAG of work units (mine →
// featurize → train → eval) scheduled over the durable pool. Scenarios
// sharing a config prefix share units, and stage artifacts land in a
// content-addressed cache (<checkpoint>/artifacts) that dedupes across runs
// too. -admin-addr serves the live run (list/inspect/cancel scenarios, unit
// status, cache counters) alongside /metrics and /healthz.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/experiments"
	"elevprivacy/internal/obsboot"
	"elevprivacy/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick      = flag.Bool("quick", false, "smoke-scale configuration (minutes instead of tens of minutes)")
		list       = flag.Bool("list", false, "list experiment names and exit")
		only       = flag.String("run", "", "run a single experiment by name")
		seed       = flag.Int64("seed", 1, "global random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit to this path")
		ckptDir    = flag.String("checkpoint", "", "directory for per-experiment checkpoints")
		resume     = flag.Bool("resume", false, "replay checkpointed experiments instead of starting fresh")
		specPath   = flag.String("spec", "", "run a declarative scenario spec (JSON) through the orchestrator")
		adminAddr  = flag.String("admin-addr", "", "serve the orchestrator admin API on this address (requires -spec)")
		outPath    = flag.String("out", "", "write scenario results as JSON to this path (requires -spec; atomic)")
		workers    = flag.Int("workers", 0, "scheduler concurrency for -spec runs (0 = spec's setting)")
	)
	obsFlags := obsboot.Register(nil)
	journalFlags := obsboot.RegisterJournal(nil)
	flag.Parse()

	tel, err := obsFlags.Start("experiments")
	if err != nil {
		return err
	}
	defer func() {
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	if *cpuprofile != "" {
		// The profile streams for the whole run, so the atomic file commits
		// (and becomes visible) only after profiling stops cleanly.
		f, err := durable.CreateAtomic(*cpuprofile, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC() // flush recently freed objects so the profile shows live heap
			err := durable.WriteFileAtomic(*memprofile, 0o644, func(w io.Writer) error {
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	if *specPath != "" {
		return runSpec(*specPath, *ckptDir, *adminAddr, *outPath, *workers, *resume, journalFlags.SyncEvery)
	}
	if *adminAddr != "" || *outPath != "" {
		return fmt.Errorf("-admin-addr and -out require -spec")
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-28s %s\n", r.Name, r.ID)
		}
		return nil
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed

	runners := experiments.All()
	if *only != "" {
		r, err := experiments.ByName(*only)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	}

	journal, err := obsboot.OpenJournal(*ckptDir, "experiments.journal", *resume, journalFlags.SyncEvery)
	if err != nil {
		return err
	}
	defer journal.Close()

	shutdown := durable.NotifyShutdown(context.Background())
	defer shutdown.Stop()

	report, err := experiments.RunSuite(shutdown.Context(), cfg, runners, journal,
		shutdown.Draining, func(res experiments.SuiteResult) {
			switch {
			case res.Err != nil:
				fmt.Fprintf(os.Stderr, "experiments: %s (%s): %v\n", res.Runner.ID, res.Runner.Name, res.Err)
			case res.Restored:
				fmt.Println(res.Table)
				fmt.Printf("(%s restored from checkpoint)\n\n", res.Runner.ID)
			default:
				fmt.Println(res.Table)
				fmt.Printf("(%s completed in %v)\n\n", res.Runner.ID, res.Elapsed.Round(time.Millisecond))
			}
		})
	if err != nil {
		return err
	}
	if report.Interrupted {
		fmt.Printf("interrupted: %s\n", report.Summary())
		return nil
	}
	if failed := report.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d of %d experiments failed", len(failed), len(report.Units))
	}
	return nil
}

// runSpec drives a declarative scenario sweep through the orchestrator.
func runSpec(specPath, ckptDir, adminAddr, outPath string, workers int, resume bool, syncEvery int) error {
	spec, err := scenario.LoadSpec(specPath)
	if err != nil {
		return err
	}

	// The journal tracks this run's completed units; the cache holds stage
	// artifacts and outlives journals — it is what dedupes repeat runs.
	// Without -checkpoint the run still works (units exchange artifacts via
	// a throwaway cache), it just remembers nothing afterwards.
	cacheDir := ""
	if ckptDir != "" {
		cacheDir = filepath.Join(ckptDir, "artifacts")
	} else {
		tmp, err := os.MkdirTemp("", "scenario-cache-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		cacheDir = tmp
	}
	cache, err := scenario.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	journal, err := obsboot.OpenJournal(ckptDir, "scenario.journal", resume, syncEvery)
	if err != nil {
		return err
	}
	defer journal.Close()
	if restored := journal.Restored(); restored > 0 {
		fmt.Printf("checkpoint: restored %d completed units from journal\n", restored)
	}
	if resume {
		if err := obsboot.RestoreRunMetrics(ckptDir, "scenario.meta"); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: previous run metrics not restored: %v\n", err)
		}
	}

	shutdown := durable.NotifyShutdown(context.Background())
	defer shutdown.Stop()

	orch, err := scenario.New(spec, scenario.Options{
		Journal:       journal,
		Cache:         cache,
		CheckpointDir: ckptDir,
		Drain:         shutdown.Draining,
		Workers:       workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("spec %s: %d scenarios expanded into %d units (dedup saved %d)\n",
		spec.Name, len(spec.Scenarios), orch.Units(), 4*len(spec.Scenarios)-orch.Units())

	if adminAddr != "" {
		admin, err := obsboot.ServeAdmin(adminAddr, "scenario", orch.Handler())
		if err != nil {
			return err
		}
		defer admin.Close()
	}

	result, sweepErr := orch.Run(shutdown.Context())

	for _, sr := range result.Scenarios {
		line := fmt.Sprintf("%-24s %-4s %-14s %-4s %s", sr.Name, sr.ThreatModel, sr.Defense, sr.Model, sr.Status)
		if sr.Metrics != nil {
			line += fmt.Sprintf("  acc=%.4f f1=%.4f", sr.Metrics.Accuracy, sr.Metrics.F1)
		}
		fmt.Println(line)
	}
	fmt.Printf("cache: %d hits, %d misses, %d puts; http attempts: %d; elapsed: %v\n",
		result.Cache.Hits, result.Cache.Misses, result.Cache.Puts,
		result.HTTPAttempts, result.Elapsed.Round(time.Millisecond))

	if outPath != "" {
		// Only the deterministic view goes in the file: a resumed run must
		// produce bytes identical to an uninterrupted one, so run-varying
		// ledgers (cache traffic, HTTP attempts, timings) stay on stdout.
		out := struct {
			Spec      string                    `json:"spec"`
			Scenarios []scenario.ScenarioResult `json:"scenarios"`
		}{Spec: result.Spec, Scenarios: result.Scenarios}
		err := durable.WriteFileAtomic(outPath, 0o644, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(out)
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote results to %s\n", outPath)
	}

	cfgJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if err := obsboot.SaveRunMeta(ckptDir, "scenario.meta", obsboot.RunMeta{
		Tool:    "experiments-spec",
		Config:  cfgJSON,
		Journal: journal.Stats(),
	}); err != nil {
		return err
	}

	if sweepErr != nil {
		if sweepErr.Interrupted() {
			fmt.Println("interrupted: journal flushed — rerun with -resume to continue")
			return nil
		}
		return sweepErr
	}
	return nil
}
