package experiments

import (
	"context"
	"fmt"
	"time"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/scenario"
)

// Per-experiment checkpointing: a full suite run is hours of CPU at paper
// scale, and a crash (or a ctrl-C) used to restart it from the first table.
// RunSuite journals every finished experiment's rendered Table under a key
// that binds it to the exact configuration, so a resumed run replays the
// finished tables byte-identically and only computes what is missing.

// configFingerprint collapses a Config into a short stable token for
// journal keys. Any knob change — scale, seed, folds — changes the
// fingerprint, so checkpoints from a differently-configured run are never
// misapplied to this one. It is scenario.Fingerprint applied to the Config:
// the same construction (and the same pinned outputs — see the golden test)
// the orchestrator uses for its stage keys, so a suite journal and a
// scenario cache can never drift apart on what "the same config" means.
func configFingerprint(cfg Config) string {
	return scenario.Fingerprint(cfg)
}

// suiteKey names one experiment's checkpoint unit.
func suiteKey(cfg Config, name string) string {
	return fmt.Sprintf("exp/%s@%s", name, configFingerprint(cfg))
}

// SuiteResult is one experiment's outcome as the suite progresses.
type SuiteResult struct {
	// Runner is the experiment that produced this result.
	Runner Runner
	// Table is the rendered artifact; nil when Err is set or the unit was
	// skipped by a drain.
	Table *Table
	// Restored is true when Table was replayed from the checkpoint journal
	// instead of recomputed.
	Restored bool
	// Elapsed is the compute time (0 when restored).
	Elapsed time.Duration
	// Err is the experiment's failure: a real error, a recovered panic
	// (*durable.PanicError), or durable.ErrInterrupted for units skipped by
	// a drain.
	Err error
}

// RunSuite executes the runners in order with per-experiment checkpoints.
// journal may be nil (no durability: every experiment recomputes). drain,
// when non-nil and closed, stops between experiments — the one in flight
// finishes, the journal flushes, and the remaining units report
// durable.ErrInterrupted in the report. A panicking experiment is
// quarantined: its SuiteResult carries the *durable.PanicError while the
// rest of the suite keeps running. emit is called once per runner, in
// order, for restored and fresh results alike.
//
// RunSuite is a thin adapter over the scenario scheduler: each runner
// becomes one dependency-free work unit, executed sequentially (Workers 1)
// so the classic CLI output stays byte-identical to the pre-orchestrator
// implementation. The scheduler supplies the durability contract —
// journaled units restore instead of re-running, panics quarantine, drains
// stop between units.
func RunSuite(ctx context.Context, cfg Config, runners []Runner, journal *durable.Journal,
	drain <-chan struct{}, emit func(SuiteResult)) (*durable.Report, error) {

	byKey := make(map[string]Runner, len(runners))
	units := make([]scenario.Unit, 0, len(runners))
	keys := make([]string, 0, len(runners))
	for _, r := range runners {
		r := r
		k := suiteKey(cfg, r.Name)
		byKey[k] = r
		keys = append(keys, k)
		units = append(units, scenario.Unit{
			Key: k,
			Run: func(context.Context) (any, error) {
				start := time.Now()
				table, err := r.Run(cfg)
				if err != nil {
					// Failures (and panics, recovered by the scheduler) are
					// emitted from the report below.
					return nil, err
				}
				if emit != nil {
					emit(SuiteResult{Runner: r, Table: table, Elapsed: time.Since(start)})
				}
				return table, nil
			},
			Restore: func() error {
				var table Table
				ok, err := journal.Get(k, &table)
				if err != nil {
					return fmt.Errorf("experiments: restoring %s: %w", r.Name, err)
				}
				if !ok {
					return fmt.Errorf("experiments: checkpoint for %s vanished mid-run", r.Name)
				}
				if emit != nil {
					emit(SuiteResult{Runner: r, Table: &table, Restored: true})
				}
				return nil
			},
		})
	}

	// The suite span is the trace's root: each experiment's "unit/exp/..."
	// span (recorded by the scheduler) nests under it.
	ctx, span := obs.StartSpan(ctx, "suite")
	span.SetAttr("experiments", fmt.Sprint(len(runners)))
	defer span.End()

	sched := &scenario.Scheduler{Journal: journal, Workers: 1, Drain: drain}
	report, err := sched.Run(ctx, units)
	if err != nil {
		return report, err
	}

	// Surface drained/failed units to the emitter so the caller's output
	// accounts for every runner, then hand back the report.
	if emit != nil {
		for i, u := range report.Units {
			if u.Err != nil {
				emit(SuiteResult{Runner: byKey[keys[i]], Err: u.Err})
			}
		}
	}
	return report, nil
}
