package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
)

// ErrCanceled marks units skipped because an admin canceled their run or
// scenario. It unwraps to durable.ErrInterrupted so every layer that treats
// a drain as a graceful partial result (Report.Failed, SweepError.Interrupted,
// exit codes) treats a cancel the same way — canceled work is requeued work,
// not failed work.
var ErrCanceled = fmt.Errorf("scenario: canceled by admin: %w", durable.ErrInterrupted)

// Unit is one node of the work DAG.
type Unit struct {
	// Key identifies the unit in the journal, the cache, and the board.
	// Units with equal keys are the dedup mechanism: the expander emits one
	// Unit per distinct key no matter how many scenarios want it.
	Key string
	// Deps are keys that must complete before this unit runs. A failed dep
	// fails this unit without running it; an interrupted dep interrupts it.
	Deps []string
	// Run computes the unit. A non-nil result is journaled under Key.
	Run func(ctx context.Context) (any, error)
	// Restore is invoked instead of Run when Key is already journaled
	// (resume) — it reloads whatever downstream consumers need. Nil means
	// nothing to reload.
	Restore func() error
}

// Scheduler fans a DAG of keyed units across the durable pool, with this
// durability contract: journaled units restore instead of re-running, completed units journal as they
// finish, panics quarantine the unit, and a drain stops dispatch while
// in-flight units finish. The DAG is executed level by level (Kahn layers),
// each level through one pool, so independent units — different scenarios'
// mines, one scenario's train against another's eval — run concurrently.
type Scheduler struct {
	// Journal records completed units; nil runs everything, remembers
	// nothing.
	Journal *durable.Journal
	// Workers bounds per-level concurrency (0 = 1).
	Workers int
	// UnitTimeout, when positive, bounds each unit's context.
	UnitTimeout time.Duration
	// Drain, when non-nil and closed, stops dispatching new units.
	Drain <-chan struct{}
	// Board, when non-nil, receives live unit status for the admin API.
	Board *durable.Board
}

// levels computes Kahn topological layers over the units: layer k holds
// every unit whose longest dependency chain has length k. Within a layer,
// units keep input order (determinism for Workers=1 callers). Unknown deps
// and cycles are errors.
func levels(units []Unit) ([][]int, error) {
	index := make(map[string]int, len(units))
	for i, u := range units {
		if u.Key == "" {
			return nil, fmt.Errorf("scenario: unit %d has no key", i)
		}
		if _, dup := index[u.Key]; dup {
			return nil, fmt.Errorf("scenario: duplicate unit key %q", u.Key)
		}
		index[u.Key] = i
	}
	depth := make([]int, len(units))
	state := make([]int, len(units)) // 0 unvisited, 1 in-progress, 2 done
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case 1:
			return fmt.Errorf("scenario: dependency cycle through %q", units[i].Key)
		case 2:
			return nil
		}
		state[i] = 1
		for _, dep := range units[i].Deps {
			j, ok := index[dep]
			if !ok {
				return fmt.Errorf("scenario: unit %q depends on unknown key %q", units[i].Key, dep)
			}
			if err := visit(j); err != nil {
				return err
			}
			if depth[j]+1 > depth[i] {
				depth[i] = depth[j] + 1
			}
		}
		state[i] = 2
		return nil
	}
	maxDepth := 0
	for i := range units {
		if err := visit(i); err != nil {
			return nil, err
		}
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
	}
	out := make([][]int, maxDepth+1)
	for i := range units {
		out[depth[i]] = append(out[depth[i]], i)
	}
	return out, nil
}

// Run executes the DAG. It only returns an error for journal I/O failures (fatal: the run cannot be made durable); unit
// failures, panics, cancels, and drains live in the Report, whose Units are
// in input order.
func (s *Scheduler) Run(ctx context.Context, units []Unit) (*durable.Report, error) {
	layers, err := levels(units)
	if err != nil {
		return nil, err
	}
	if s.Board != nil {
		for _, u := range units {
			s.Board.Register(u.Key)
		}
	}
	drain := s.Drain
	if drain == nil {
		drain = make(chan struct{}) // never closes
	}

	outcomes := make([]error, len(units))
	restored := make([]bool, len(units))
	processed := make([]bool, len(units))
	interrupted := false

	var mu sync.Mutex // guards outcomes/restored across a level's workers
	outcomeOf := func(key string) (error, bool) {
		for i, u := range units {
			if u.Key == key {
				mu.Lock()
				defer mu.Unlock()
				if !processed[i] {
					return nil, false
				}
				return outcomes[i], true
			}
		}
		return nil, false
	}

layers:
	for _, layer := range layers {
		// Drain check between levels.
		stopped := ctx.Err() != nil
		select {
		case <-drain:
			stopped = true
		default:
		}
		if stopped {
			interrupted = true
			break layers
		}

		// Charge units whose dependencies did not complete; run the rest.
		var runnable []int
		for _, i := range layer {
			var depErr error
			for _, dep := range units[i].Deps {
				if derr, ok := outcomeOf(dep); ok && derr != nil {
					depErr = derr
					break
				} else if !ok {
					depErr = durable.ErrInterrupted
					break
				}
			}
			if depErr != nil {
				mu.Lock()
				if errors.Is(depErr, durable.ErrInterrupted) {
					outcomes[i] = depErr
				} else {
					outcomes[i] = fmt.Errorf("scenario: dependency failed: %w", depErr)
				}
				processed[i] = true
				mu.Unlock()
				s.Board.Finish(units[i].Key, outcomes[i])
				countOutcome(outcomes[i], false)
				continue
			}
			runnable = append(runnable, i)
		}
		if len(runnable) == 0 {
			continue
		}

		pool := durable.Pool{
			Workers:     s.Workers,
			UnitTimeout: s.UnitTimeout,
			Drain:       s.Drain,
			Board:       s.Board,
			Key:         func(k int) string { return units[runnable[k]].Key },
		}
		perr := pool.ForEachIndex(ctx, len(runnable), func(uctx context.Context, k int) error {
			i := runnable[k]
			u := units[i]
			var uerr error
			var wasRestored bool
			if s.Journal.Has(u.Key) {
				uerr = runRecovered(func() error {
					if u.Restore == nil {
						return nil
					}
					return u.Restore()
				})
				wasRestored = uerr == nil
				if wasRestored {
					s.Board.Restored(u.Key)
				}
			} else {
				start := time.Now()
				var value any
				uerr = runRecovered(func() error {
					sctx, span := obs.StartSpan(uctx, "unit/"+u.Key)
					defer span.End()
					var rerr error
					value, rerr = u.Run(sctx)
					if rerr != nil {
						span.SetAttr("error", rerr.Error())
					}
					return rerr
				})
				unitSecs.ObserveSince(start)
				if uerr == nil && value != nil {
					if jerr := s.Journal.Put(u.Key, value); jerr != nil {
						// Journal I/O failure is the one fatal path: returning
						// it cancels the pool and aborts the run.
						mu.Lock()
						outcomes[i] = jerr
						processed[i] = true
						mu.Unlock()
						return jerr
					}
				}
				if uerr != nil && errors.Is(uerr, ErrCanceled) {
					s.Board.Canceled(u.Key)
				}
			}
			mu.Lock()
			outcomes[i] = uerr
			restored[i] = wasRestored
			processed[i] = true
			mu.Unlock()
			countOutcome(uerr, wasRestored)
			// Unit failures stay in the report; only journal errors (above)
			// propagate to the pool.
			return nil
		})
		if perr != nil {
			switch {
			case errors.Is(perr, durable.ErrInterrupted),
				errors.Is(perr, context.Canceled),
				errors.Is(perr, context.DeadlineExceeded):
				interrupted = true
				break layers
			default:
				// A journal Put failure: flush what we have and abort.
				report := s.buildReport(units, outcomes, restored, processed, interrupted)
				if ferr := s.Journal.Flush(); ferr != nil {
					return report, ferr
				}
				return report, perr
			}
		}
	}

	report := s.buildReport(units, outcomes, restored, processed, interrupted)
	if err := s.Journal.Flush(); err != nil {
		return report, err
	}
	return report, nil
}

// buildReport assembles the per-unit outcomes in input order, charging
// unprocessed units ErrInterrupted (requeued work a resume picks up).
func (s *Scheduler) buildReport(units []Unit, outcomes []error, restored, processed []bool, interrupted bool) *durable.Report {
	report := &durable.Report{
		Units:       make([]durable.UnitStatus, 0, len(units)),
		Interrupted: interrupted,
	}
	for i, u := range units {
		err := outcomes[i]
		if !processed[i] {
			err = durable.ErrInterrupted
			s.Board.Interrupt(u.Key)
			unitsInterrupted.Inc()
		}
		report.Units = append(report.Units, durable.UnitStatus{
			Key: u.Key, Restored: restored[i], Err: err,
		})
	}
	return report
}

// countOutcome maintains the elevpriv_scenario_units_total series.
func countOutcome(err error, wasRestored bool) {
	switch {
	case err == nil && wasRestored:
		unitsRestored.Inc()
	case err == nil:
		unitsDone.Inc()
	case errors.Is(err, ErrCanceled):
		unitsCanceled.Inc()
	case errors.Is(err, durable.ErrInterrupted):
		unitsInterrupted.Inc()
	default:
		unitsFailed.Inc()
	}
}

// runRecovered invokes fn, converting a panic into a *durable.PanicError so
// a panicking unit is quarantined instead of killing its siblings.
func runRecovered(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &durable.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
