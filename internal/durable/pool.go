package durable

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInterrupted marks work units that were never attempted because the run
// was draining for shutdown. Callers distinguish it from real failures to
// decide on an exit-0 partial result.
var ErrInterrupted = errors.New("durable: interrupted, draining for shutdown")

// PanicError wraps a panic recovered from a work unit, carrying the value
// and the goroutine stack. The unit that panicked is quarantined — reported
// as failed — while its siblings keep running.
type PanicError struct {
	// Value is what the unit passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("durable: work unit panicked: %v", e.Value)
}

// Pool runs indexed work units over bounded workers with the supervision a
// long sweep needs: per-worker panic recovery (a panicking unit becomes a
// *PanicError instead of killing the process), an optional per-unit deadline
// budget, and an optional drain signal that stops dispatching new units
// while letting in-flight units finish.
type Pool struct {
	// Workers bounds concurrency; values below 1 behave as 1.
	Workers int
	// UnitTimeout, when positive, bounds each unit via a derived context.
	UnitTimeout time.Duration
	// Drain, when non-nil and closed, stops the dispatch of further units.
	// Units already running complete normally; undispatched units are
	// charged ErrInterrupted.
	Drain <-chan struct{}
	// Key, when non-nil, names unit i for the status Board. Required when
	// Board is set.
	Key func(i int) string
	// Board, when non-nil, receives live unit transitions (running, done,
	// failed, interrupted) so an admin surface can watch the run in flight.
	Board *Board
}

// ForEachIndex runs fn(ctx, i) for i in [0, n) over the pool. The first
// failure cancels the shared context; after all workers finish, the
// lowest-index error among the units that actually ran wins, so concurrent
// sweeps fail deterministically. (A unit above the lowest failed index that
// a worker reaches after the failure is skipped, not failed — it records no
// error. Every unit below it still runs, so the lowest failing unit always
// does.)
// When the pool drains mid-run the lowest undispatched index reports
// ErrInterrupted (unless an earlier unit failed harder).
func (p Pool) ForEachIndex(ctx context.Context, n int, fn func(context.Context, int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var failed sync.Once
	var lowestFailed atomic.Int64
	lowestFailed.Store(int64(n))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				// Indices arrive in order, so every index below i is
				// already with a worker.
				if parent.Err() != nil || int64(i) > lowestFailed.Load() {
					return
				}
				if err := p.runUnit(ctx, i, fn); err != nil {
					errs[i] = err
					for cur := lowestFailed.Load(); int64(i) < cur && !lowestFailed.CompareAndSwap(cur, int64(i)); {
						cur = lowestFailed.Load()
					}
					failed.Do(cancel)
				}
			}
		}()
	}

	poolQueueDepth.Add(float64(n))
	dispatched := 0
	drained := -1
feed:
	for i := 0; i < n; i++ {
		// Check the drain first, non-blocking: when a closed drain and a free
		// worker are both ready the select below picks at random, which would
		// make drain-before-unit nondeterministic. A closed drain must win.
		select {
		case <-p.drain():
			drained = i
			break feed
		default:
		}
		select {
		case idx <- i:
			dispatched++
			poolDispatched.Inc()
			poolQueueDepth.Add(-1)
		case <-ctx.Done():
			break feed
		case <-p.drain():
			drained = i
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// Undispatched units leave the queue without running; on a drain they
	// are requeued work a resumed run will pick back up.
	poolQueueDepth.Add(float64(dispatched - n))
	if drained >= 0 {
		poolRequeued.Add(int64(n - dispatched))
	}
	if drained >= 0 && errs[drained] == nil {
		errs[drained] = ErrInterrupted
	}
	if p.Board != nil && p.Key != nil && drained >= 0 {
		for i := drained; i < n; i++ {
			p.Board.Interrupt(p.Key(i))
		}
	}

	// Report the lowest-index root-cause error. With a live parent context,
	// context.Canceled errors are fallout from our own cancel after some
	// other index failed — skip past them to the cause.
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if parent.Err() == nil && errors.Is(err, context.Canceled) {
			continue
		}
		return err
	}
	if fallback != nil {
		return fallback
	}
	return parent.Err()
}

// runUnit executes one unit under the deadline budget, converting a panic
// into a *PanicError so the worker (and the process) survives it.
func (p Pool) runUnit(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	start := time.Now()
	poolInFlight.Add(1)
	if p.Board != nil && p.Key != nil {
		p.Board.Start(p.Key(i))
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		poolInFlight.Add(-1)
		poolUnitSecs.ObserveSince(start)
		if err != nil {
			poolFailed.Inc()
		} else {
			poolCompleted.Inc()
		}
		if p.Board != nil && p.Key != nil {
			// Sticky-terminal: if fn already recorded a richer outcome
			// (restored, canceled, failed-with-detail) this is a no-op.
			p.Board.Finish(p.Key(i), err)
		}
	}()
	if p.UnitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.UnitTimeout)
		defer cancel()
	}
	return fn(ctx, i)
}

// drain returns the pool's drain channel, or a never-closing one.
func (p Pool) drain() <-chan struct{} {
	if p.Drain != nil {
		return p.Drain
	}
	return neverDrain
}

var neverDrain = make(chan struct{})

// UnitStatus is the outcome of one unit in a Report.
type UnitStatus struct {
	// Key identifies the unit.
	Key string
	// Restored is true when the unit's result came from the journal.
	Restored bool
	// Err is the unit's failure (possibly a *PanicError), nil on success,
	// ErrInterrupted when the run drained before the unit started.
	Err error
}

// Report summarizes a scheduled run: per-unit outcomes in input order plus
// whether the run was interrupted by a drain.
type Report struct {
	Units       []UnitStatus
	Interrupted bool
}

// Completed counts units that ran (or restored) successfully.
func (r *Report) Completed() int {
	n := 0
	for _, u := range r.Units {
		if u.Err == nil {
			n++
		}
	}
	return n
}

// Restored counts units whose results were replayed from the journal.
func (r *Report) Restored() int {
	n := 0
	for _, u := range r.Units {
		if u.Restored {
			n++
		}
	}
	return n
}

// Failed returns the units that failed for reasons other than draining.
func (r *Report) Failed() []UnitStatus {
	var out []UnitStatus
	for _, u := range r.Units {
		if u.Err != nil && !errors.Is(u.Err, ErrInterrupted) {
			out = append(out, u)
		}
	}
	return out
}

// Summary renders a one-line partial-result summary for shutdown messages.
func (r *Report) Summary() string {
	failed := len(r.Failed())
	s := fmt.Sprintf("%d/%d units done (%d restored from checkpoint, %d failed)",
		r.Completed(), len(r.Units), r.Restored(), failed)
	if r.Interrupted {
		s += ", interrupted — resume to continue"
	}
	return s
}
