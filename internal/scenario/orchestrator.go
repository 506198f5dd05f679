package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elevprivacy"
	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
)

// Options configures an Orchestrator.
type Options struct {
	// Journal records completed units for resume; nil remembers nothing.
	Journal *durable.Journal
	// Cache is the content-addressed artifact store. Required: the cache is
	// the data plane between stages.
	Cache *Cache
	// CheckpointDir, when non-empty, holds per-mine-unit sub-journals so a
	// drained sweep resumes mid-mine, not just mid-DAG.
	CheckpointDir string
	// Drain, when non-nil and closed, stops dispatch (SIGINT/SIGTERM via
	// durable.NotifyShutdown). The admin API's cancel merges into the same
	// signal.
	Drain <-chan struct{}
	// Workers overrides the spec's scheduler concurrency when positive.
	Workers int
	// UnitTimeout, when positive, bounds each unit's context.
	UnitTimeout time.Duration
}

// Orchestrator owns one spec's run: the expanded unit DAG, the live status
// board the admin API reads, the cancel state, and the HTTP-attempt ledger.
// Build with New, execute once with Run; the admin handler stays valid
// before, during, and after the run.
type Orchestrator struct {
	spec        *Spec
	cache       *Cache
	journal     *durable.Journal
	ckptDir     string
	workers     int
	unitTimeout time.Duration

	units    []Unit
	owners   map[string][]string // unit key -> owning scenario names
	unitKeys map[string][]string // scenario name -> its unit keys in stage order
	board    *durable.Board

	externalDrain <-chan struct{}
	drain         chan struct{} // merged drain the units and scheduler watch
	cancelCh      chan struct{}
	cancelOnce    sync.Once
	mergeOnce     sync.Once

	mu       sync.Mutex
	canceled map[string]bool // scenario name -> admin-canceled

	httpAttempts atomic.Int64
	state        atomic.Value // "pending" | "running" | "done"
	startedAt    time.Time
	result       atomic.Pointer[Result]
}

// New validates the options, expands the spec into its deduped unit DAG, and
// returns an orchestrator ready to Run.
func New(spec *Spec, opts Options) (*Orchestrator, error) {
	if spec == nil {
		return nil, fmt.Errorf("scenario: nil spec")
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		return nil, fmt.Errorf("scenario: an artifact cache is required (stages exchange data through it)")
	}
	workers := spec.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	o := &Orchestrator{
		spec:          spec,
		cache:         opts.Cache,
		journal:       opts.Journal,
		ckptDir:       opts.CheckpointDir,
		workers:       workers,
		unitTimeout:   opts.UnitTimeout,
		owners:        make(map[string][]string),
		unitKeys:      make(map[string][]string),
		externalDrain: opts.Drain,
		drain:         make(chan struct{}),
		cancelCh:      make(chan struct{}),
		canceled:      make(map[string]bool),
	}
	o.state.Store("pending")
	o.units = o.expand()
	o.board = durable.NewBoard()
	for _, u := range o.units {
		o.board.Register(u.Key)
	}
	return o, nil
}

// Units returns the expanded unit count (after dedup).
func (o *Orchestrator) Units() int { return len(o.units) }

// ScenarioResult is one scenario's outcome.
type ScenarioResult struct {
	Name        string `json:"name"`
	ThreatModel string `json:"threat_model"`
	Defense     string `json:"defense"`
	Model       string `json:"model"`
	// Status is done, failed, interrupted, or canceled.
	Status  string               `json:"status"`
	Metrics *elevprivacy.Metrics `json:"metrics,omitempty"`
	Err     string               `json:"error,omitempty"`
}

// Result is the run's outcome: per-scenario results in spec order plus the
// run-level ledgers (cache traffic, HTTP attempts, the unit report).
type Result struct {
	Spec         string           `json:"spec"`
	Scenarios    []ScenarioResult `json:"scenarios"`
	Cache        CacheStats       `json:"cache"`
	HTTPAttempts int64            `json:"http_attempts"`
	Interrupted  bool             `json:"interrupted"`
	Elapsed      time.Duration    `json:"-"`
	Report       *durable.Report  `json:"-"`
}

// ScenarioError is one scenario's failure inside a SweepError.
type ScenarioError struct {
	Name string
	Err  error
}

// SweepError aggregates a run's failures, mirroring segments.SweepError:
// per-scenario errors plus an optional fatal run-level error (journal I/O).
type SweepError struct {
	PerScenario []ScenarioError
	// Fatal is a run-aborting error (the journal could not be written), nil
	// when the run itself completed.
	Fatal   error
	Elapsed time.Duration
}

// Error implements the error interface.
func (e *SweepError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario: %d scenario(s) failed", len(e.PerScenario))
	if e.Fatal != nil {
		fmt.Fprintf(&sb, " (fatal: %v)", e.Fatal)
	}
	sb.WriteString(":")
	for _, se := range e.PerScenario {
		fmt.Fprintf(&sb, " %s: %v;", se.Name, se.Err)
	}
	return strings.TrimSuffix(sb.String(), ";")
}

// Unwrap exposes the per-scenario errors to errors.Is / errors.As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, 0, len(e.PerScenario)+1)
	for _, se := range e.PerScenario {
		errs = append(errs, se.Err)
	}
	if e.Fatal != nil {
		errs = append(errs, e.Fatal)
	}
	return errs
}

// Interrupted reports whether the failure is (entirely) a graceful drain or
// admin cancel rather than real errors: every per-scenario error unwraps to
// durable.ErrInterrupted and nothing was fatal. CLIs use it to exit 0 with a
// partial summary, exactly like a mining sweep's drain.
func (e *SweepError) Interrupted() bool {
	if e == nil || e.Fatal != nil {
		return false
	}
	for _, se := range e.PerScenario {
		if !errors.Is(se.Err, durable.ErrInterrupted) {
			return false
		}
	}
	return len(e.PerScenario) > 0
}

// Run executes the DAG once. The *SweepError is nil when every scenario
// completed; a drained or canceled run reports Interrupted() == true. The
// Result is always returned, partial or not.
func (o *Orchestrator) Run(ctx context.Context) (*Result, *SweepError) {
	o.startedAt = time.Now()
	o.state.Store("running")

	// Merge the external drain (signals) and the admin cancel into the one
	// channel the scheduler, the units, and the miners watch. A nil external
	// drain is a never-ready select case.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-o.externalDrain:
		case <-o.cancelCh:
		case <-done:
			return
		}
		o.mergeOnce.Do(func() { close(o.drain) })
	}()

	ctx, span := obs.StartSpan(ctx, "orchestrate")
	span.SetAttr("spec", o.spec.Name)
	span.SetAttr("units", fmt.Sprint(len(o.units)))
	defer span.End()

	sched := &Scheduler{
		Journal:     o.journal,
		Workers:     o.workers,
		UnitTimeout: o.unitTimeout,
		Drain:       o.drain,
		Board:       o.board,
	}
	report, fatal := sched.Run(ctx, o.units)
	result, sweepErr := o.assemble(report, fatal)
	o.result.Store(result)
	o.state.Store("done")
	return result, sweepErr
}

// assemble folds the unit report into per-scenario outcomes.
func (o *Orchestrator) assemble(report *durable.Report, fatal error) (*Result, *SweepError) {
	byKey := make(map[string]durable.UnitStatus, len(report.Units))
	for _, u := range report.Units {
		byKey[u.Key] = u
	}
	result := &Result{
		Spec:         o.spec.Name,
		Cache:        o.cache.Stats(),
		HTTPAttempts: o.httpAttempts.Load(),
		Interrupted:  report.Interrupted,
		Elapsed:      time.Since(o.startedAt),
		Report:       report,
	}
	var sweep SweepError
	for i := range o.spec.Scenarios {
		sc := &o.spec.Scenarios[i]
		sr := ScenarioResult{
			Name:        sc.Name,
			ThreatModel: sc.ThreatModel,
			Defense:     sc.Defense,
			Model:       sc.Model,
			Status:      "done",
		}
		var firstErr error
		for _, key := range o.unitKeys[sc.Name] {
			if u, ok := byKey[key]; ok && u.Err != nil {
				firstErr = u.Err
				break
			}
		}
		switch {
		case firstErr == nil:
			var ev evalArtifact
			if err := o.fetch(sc.evalKey(), &ev); err != nil {
				firstErr = err
				sr.Status = "failed"
				sr.Err = err.Error()
			} else {
				m := ev.Metrics
				sr.Metrics = &m
			}
		case errors.Is(firstErr, ErrCanceled) || o.scenarioCanceled(sc.Name):
			sr.Status = "canceled"
			sr.Err = firstErr.Error()
		case errors.Is(firstErr, durable.ErrInterrupted):
			sr.Status = "interrupted"
			sr.Err = firstErr.Error()
		default:
			sr.Status = "failed"
			sr.Err = firstErr.Error()
		}
		if firstErr != nil {
			sweep.PerScenario = append(sweep.PerScenario, ScenarioError{Name: sc.Name, Err: firstErr})
		}
		result.Scenarios = append(result.Scenarios, sr)
	}
	sweep.Fatal = fatal
	sweep.Elapsed = result.Elapsed
	if len(sweep.PerScenario) == 0 && sweep.Fatal == nil {
		return result, nil
	}
	return result, &sweep
}

// CancelRun cancels the whole run: dispatch stops, in-flight units finish,
// the journal flushes — indistinguishable from a signal drain, and equally
// resumable.
func (o *Orchestrator) CancelRun() {
	cancels.Inc()
	o.cancelOnce.Do(func() { close(o.cancelCh) })
}

// CancelScenario cancels one scenario by name. Units shared with live
// scenarios keep running; units owned only by canceled scenarios are skipped
// with ErrCanceled.
func (o *Orchestrator) CancelScenario(name string) error {
	if _, ok := o.unitKeys[name]; !ok {
		return fmt.Errorf("scenario: no scenario named %q", name)
	}
	o.mu.Lock()
	o.canceled[name] = true
	all := len(o.canceled) == len(o.spec.Scenarios)
	o.mu.Unlock()
	cancels.Inc()
	if all {
		// Nothing left to run for: drain the whole sweep.
		o.cancelOnce.Do(func() { close(o.cancelCh) })
	}
	return nil
}

// scenarioCanceled reports whether the named scenario was admin-canceled.
func (o *Orchestrator) scenarioCanceled(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.canceled[name]
}

// keyCanceled reports whether every scenario that wants this unit has been
// canceled.
func (o *Orchestrator) keyCanceled(key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	owners := o.owners[key]
	if len(owners) == 0 {
		return false
	}
	for _, name := range owners {
		if !o.canceled[name] {
			return false
		}
	}
	return true
}
