package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
)

// Classifier is the stage the spooler feeds: one batch of elevation
// profiles in, one predicted label per profile out. Predictions must be
// row-independent and deterministic — the exactly-once contract replays
// activities across arbitrary batch boundaries and still promises
// byte-identical results.
type Classifier interface {
	ClassifyBatch(profiles [][]float64) ([]string, error)
}

// Config tunes the pipeline's bounds. Every bound exists to keep some
// resource finite under overload: SpoolDepth bounds queued profiles,
// MaxBacklog bounds the accepted-but-unclassified set (past it the front
// door sheds), MaxBatch bounds one classifier call, StageTimeout bounds
// how long one wedged classifier call can stall the belt.
type Config struct {
	// SpoolDepth bounds the activities between accept and classify: those
	// waiting for a Sync plus those handed to the batcher.
	SpoolDepth int
	// MaxBatch is the largest batch handed to the classifier.
	MaxBatch int
	// MaxBacklog bounds accepted-but-unclassified activities; an accept
	// that would exceed it is shed with a retry hint instead of journaled.
	MaxBacklog int
	// StageTimeout abandons a classify call that outlives it; the batch's
	// activities return to the backlog and are replayed. 0 disables it.
	StageTimeout time.Duration
	// ReplayInterval is how often the replayer tries to move backlog
	// entries into free spool capacity.
	ReplayInterval time.Duration
	// Limits bounds decoded envelopes (re-checked on Accept).
	Limits Limits
	// Logf receives requeue/replay diagnostics; nil means the process obs
	// logger at error level.
	Logf func(string, ...any)
}

// withDefaults fills zero fields with serving-shaped defaults.
func (c Config) withDefaults() Config {
	if c.SpoolDepth <= 0 {
		c.SpoolDepth = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBacklog <= 0 {
		c.MaxBacklog = 1 << 16
	}
	if c.ReplayInterval <= 0 {
		c.ReplayInterval = 200 * time.Millisecond
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// Journal file names inside the pipeline directory.
const (
	intakeJournalName  = "intake.journal"
	resultsJournalName = "results.journal"
)

// Status classifies what Accept did with an envelope.
type Status int

const (
	// Accepted: journaled, holding a spool slot; the next Sync queues it
	// for classification.
	Accepted Status = iota
	// Spilled: journaled, but the spool was full — parked in the backlog
	// for the replayer. Still durably accepted.
	Spilled
	// Duplicate: the ID was already accepted (possibly already
	// classified); nothing new recorded.
	Duplicate
	// Shed: refused without journaling — backlog at bound or draining.
	// The caller should tell the client to back off and retry.
	Shed
)

func (s Status) String() string {
	switch s {
	case Accepted:
		return "accepted"
	case Spilled:
		return "spilled"
	case Duplicate:
		return "duplicate"
	default:
		return "shed"
	}
}

// ErrDraining reports an accept attempted after drain began.
var ErrDraining = errors.New("ingest: pipeline is draining")

// ErrStageTimeout reports a classify call abandoned past StageTimeout.
var ErrStageTimeout = errors.New("ingest: classifier stage deadline exceeded")

// spoolItem is one queued activity.
type spoolItem struct {
	id     string
	region string
	elevs  []float64
	enq    time.Time
}

// Pipeline is the running spooler: Accept at the front, a batcher and
// replayer behind, two journals underneath. Construct with Open, stop with
// Drain.
//
// The intake journal is fsynced only by Sync (once per request, before the
// ack) and Drain; the results journal only at Drain. A result lost to a
// crash leaves its activity in intake − results, so it is classified
// again on restart, to the same bytes.
type Pipeline struct {
	cfg     Config
	cls     Classifier
	intake  *durable.Journal // id → Envelope, appended before the ack
	results *durable.Journal // id → predicted label

	drainCh chan struct{}
	wg      sync.WaitGroup

	mu sync.Mutex
	// ready wakes the batcher when rows are queued or the drain begins.
	ready sync.Cond
	// The spool, at most SpoolDepth rows: awaiting holds accepted rows no
	// Sync has covered yet, queue the rows handed to the batcher. handed
	// counts the rows ever moved from awaiting to queue, so a Sync can name
	// the prefix of awaiting its fsync covers.
	awaiting []spoolItem
	queue    []spoolItem
	handed   int
	backlog  map[string]struct{} // accepted, durable, not in the spool
	inflight map[string]struct{} // in the spool or mid-classify
	draining bool

	// batch is the batcher's MaxBatch-row buffer, reused for every batch.
	batch []spoolItem

	accepted   atomic.Int64
	duplicates atomic.Int64
	shed       atomic.Int64
	spilled    atomic.Int64
	classified atomic.Int64
	replayed   atomic.Int64
	requeued   atomic.Int64
	timeouts   atomic.Int64
	failures   atomic.Int64
	restored   int64

	closeOnce sync.Once
	closeErr  error

	logf func(string, ...any)
}

// Open opens (creating if needed) the pipeline state under dir and starts
// the batcher and replayer. On a restart, the backlog is rebuilt as
// intake − results: every activity that was acknowledged but not yet
// classified when the previous process died, ready to replay.
func Open(dir string, cfg Config, cls Classifier) (*Pipeline, error) {
	if cls == nil {
		return nil, fmt.Errorf("ingest: nil classifier")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating %s: %w", dir, err)
	}
	intake, err := durable.OpenJournal(filepath.Join(dir, intakeJournalName))
	if err != nil {
		return nil, err
	}
	results, err := durable.OpenJournal(filepath.Join(dir, resultsJournalName))
	if err != nil {
		_ = intake.Close()
		return nil, err
	}
	// Neither journal fsyncs on Put: Sync and Drain flush the intake,
	// Drain the results.
	intake.SyncEvery = 0
	results.SyncEvery = 0

	p := &Pipeline{
		cfg:      cfg,
		cls:      cls,
		intake:   intake,
		results:  results,
		drainCh:  make(chan struct{}),
		backlog:  make(map[string]struct{}),
		inflight: make(map[string]struct{}),
		batch:    make([]spoolItem, 0, cfg.MaxBatch),
		logf:     cfg.Logf,
	}
	p.ready.L = &p.mu
	if p.logf == nil {
		p.logf = func(format string, args ...any) { obs.DefaultLogger().Errorf(format, args...) }
	}
	for _, id := range intake.Keys() {
		if !results.Has(id) {
			p.backlog[id] = struct{}{}
		}
	}
	p.restored = int64(len(p.backlog))
	mRestored.Add(p.restored)
	mBacklogDepth.Set(float64(len(p.backlog)))

	p.wg.Add(2)
	go p.batcher()
	go p.replayer()
	return p, nil
}

// Accept admits one validated envelope. The envelope is journaled before
// Accept returns Accepted or Spilled — after the caller's next Sync it can
// never be lost — and is deduplicated by ID against everything already
// accepted. An Accepted envelope holds a spool slot but reaches the
// classifier only once a Sync (or the Drain) covers it; Spilled means the
// spool was full and the replayer feeds it in later. Shed means nothing
// was recorded and the client must retry later. The returned error is an
// internal failure (journal I/O), except ErrDraining which accompanies
// Shed during shutdown.
func (p *Pipeline) Accept(env Envelope) (Status, error) {
	if err := env.Validate(p.cfg.Limits); err != nil {
		return Shed, err
	}

	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		p.shed.Add(1)
		mShed.Inc()
		return Shed, ErrDraining
	}
	if _, ok := p.inflight[env.ID]; ok {
		p.mu.Unlock()
		p.duplicates.Add(1)
		mDuplicates.Inc()
		return Duplicate, nil
	}
	if _, ok := p.backlog[env.ID]; ok {
		p.mu.Unlock()
		p.duplicates.Add(1)
		mDuplicates.Inc()
		return Duplicate, nil
	}
	if p.results.Has(env.ID) || p.intake.Has(env.ID) {
		// Accepted by a previous incarnation (classified or still pending
		// restore) — the ack is already durable.
		p.mu.Unlock()
		p.duplicates.Add(1)
		mDuplicates.Inc()
		return Duplicate, nil
	}
	if len(p.backlog) >= p.cfg.MaxBacklog {
		// The durable overflow is itself at bound; admitting more would
		// grow memory without bound. Shed and let the client back off.
		p.mu.Unlock()
		p.shed.Add(1)
		mShed.Inc()
		return Shed, nil
	}
	// Reserve the ID before the journal write so a concurrent duplicate
	// upload of the same ID cannot double-accept.
	p.inflight[env.ID] = struct{}{}
	p.mu.Unlock()

	if err := p.intake.Put(env.ID, env); err != nil {
		p.mu.Lock()
		delete(p.inflight, env.ID)
		p.mu.Unlock()
		return Shed, err
	}
	p.accepted.Add(1)
	mAccepted.Inc()

	item := spoolItem{id: env.ID, region: env.Region, elevs: env.Elevations, enq: time.Now()}
	p.mu.Lock()
	if spool := len(p.awaiting) + len(p.queue); spool < p.cfg.SpoolDepth {
		p.awaiting = append(p.awaiting, item)
		p.mu.Unlock()
		mSpoolDepth.Set(float64(spool + 1))
		return Accepted, nil
	}
	// Spool full: the activity is durable in the intake journal, so park
	// the ID and let the replayer feed it back when the classifier catches
	// up. This is the graceful-degradation path: accept → spill → recover,
	// never lose.
	delete(p.inflight, env.ID)
	p.backlog[env.ID] = struct{}{}
	depth := len(p.backlog)
	p.mu.Unlock()
	p.spilled.Add(1)
	mSpilled.Inc()
	mBacklogDepth.Set(float64(depth))
	return Spilled, nil
}

// Sync makes every accepted-so-far envelope durable, then hands the rows
// its fsync covered to the batcher. The HTTP layer calls it once per
// request, before the acknowledgment: the fsync is shared by the request's
// lines (and, through the journal's group commit, by concurrent requests),
// and the request's rows reach an idle batcher as one batch.
func (p *Pipeline) Sync() error {
	p.mu.Lock()
	through := p.handed + len(p.awaiting)
	p.mu.Unlock()
	if err := p.intake.Flush(); err != nil {
		return err
	}
	p.mu.Lock()
	p.handOverLocked(through)
	p.mu.Unlock()
	return nil
}

// handOverLocked moves the rows of awaiting numbered below through (in
// handed's count) to the batcher's queue.
func (p *Pipeline) handOverLocked(through int) {
	n := through - p.handed
	if n <= 0 {
		return
	}
	p.queue = append(p.queue, p.awaiting[:n]...)
	p.awaiting = shift(p.awaiting, n)
	p.handed = through
	p.ready.Signal()
}

// shift drops the first n items of s in place, clearing the vacated tail
// so the spool keeps no stale profile reachable.
func shift(s []spoolItem, n int) []spoolItem {
	m := copy(s, s[n:])
	clear(s[m:])
	return s[:m]
}

// RetryAfterHint is the backoff a shed client should honor, scaled with
// backlog pressure: an almost-empty backlog hints 1 s, a full one hints
// proportionally longer, so pooled clients spread their retries instead of
// stampeding the moment one slot frees.
func (p *Pipeline) RetryAfterHint() time.Duration {
	p.mu.Lock()
	frac := float64(len(p.backlog)) / float64(p.cfg.MaxBacklog)
	p.mu.Unlock()
	secs := 1 + int(frac*4+0.5)
	return time.Duration(secs) * time.Second
}

// batcher is the classify stage: whenever it is idle, it takes everything
// queued, up to MaxBatch rows, and classifies it. There is no timer: rows
// handed over during a classify form the next batch, so batches grow with
// load and an idle belt adds no wait.
func (p *Pipeline) batcher() {
	defer p.wg.Done()
	for {
		batch := p.nextBatch()
		if len(batch) == 0 {
			return
		}
		p.classifyBatch(batch)
	}
}

// nextBatch blocks until rows are queued and moves up to MaxBatch of them
// into the reused batch buffer. An empty batch means the drain began and
// the queue is empty — the belt stops.
func (p *Pipeline) nextBatch() []spoolItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.draining {
		p.ready.Wait()
	}
	n := min(len(p.queue), p.cfg.MaxBatch)
	p.batch = append(p.batch[:0], p.queue[:n]...)
	p.queue = shift(p.queue, n)
	mSpoolDepth.Set(float64(len(p.awaiting) + len(p.queue)))
	return p.batch
}

// classifyBatch runs one batch through the classifier and records the
// outcome: predictions to the results journal on success, every member
// back to the backlog on failure or timeout (the replayer retries them).
func (p *Pipeline) classifyBatch(batch []spoolItem) {
	mSpoolAge.Set(time.Since(batch[0].enq).Seconds())

	// profiles is fresh per batch: a classify abandoned past StageTimeout
	// still reads it after batch is reused.
	profiles := make([][]float64, len(batch))
	for i := range batch {
		profiles[i] = batch[i].elevs
	}
	start := time.Now()
	preds, err := p.classify(profiles)
	mBatchSeconds.ObserveSince(start)
	mBatchSize.Observe(float64(len(batch)))

	if err == nil && len(preds) != len(batch) {
		err = fmt.Errorf("ingest: classifier returned %d predictions for %d profiles",
			len(preds), len(batch))
	}
	if err != nil {
		if errors.Is(err, ErrStageTimeout) {
			p.timeouts.Add(1)
			mBatchTimeouts.Inc()
		} else {
			p.failures.Add(1)
			mBatchFailures.Inc()
		}
		p.logf("ingest: batch of %d failed, requeued: %v", len(batch), err)
		p.mu.Lock()
		for i := range batch {
			delete(p.inflight, batch[i].id)
			p.backlog[batch[i].id] = struct{}{}
		}
		depth := len(p.backlog)
		p.mu.Unlock()
		p.requeued.Add(int64(len(batch)))
		mRequeued.Add(int64(len(batch)))
		mBacklogDepth.Set(float64(depth))
		return
	}

	for i := range batch {
		if err := p.results.Put(batch[i].id, preds[i]); err != nil {
			// A result that cannot be journaled is not delivered: requeue
			// the remainder; already-journaled members of this batch are
			// done.
			p.logf("ingest: recording result for %s: %v", batch[i].id, err)
			p.mu.Lock()
			for j := i; j < len(batch); j++ {
				delete(p.inflight, batch[j].id)
				p.backlog[batch[j].id] = struct{}{}
			}
			p.mu.Unlock()
			p.requeued.Add(int64(len(batch) - i))
			mRequeued.Add(int64(len(batch) - i))
			return
		}
		if batch[i].region != "" {
			mLabeled.Inc()
			if batch[i].region == preds[i] {
				mLabelMatches.Inc()
			}
		}
	}
	p.mu.Lock()
	for i := range batch {
		delete(p.inflight, batch[i].id)
	}
	p.mu.Unlock()
	p.classified.Add(int64(len(batch)))
	mClassified.Add(int64(len(batch)))
}

// classify runs one classifier call under the stage deadline. A call that
// outlives the deadline is abandoned — its eventual result is discarded,
// never recorded — so one wedged stage invocation cannot stall the belt
// forever; the batch replays through a fresh call.
func (p *Pipeline) classify(profiles [][]float64) ([]string, error) {
	if p.cfg.StageTimeout <= 0 {
		return p.cls.ClassifyBatch(profiles)
	}
	type result struct {
		preds []string
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		preds, err := p.cls.ClassifyBatch(profiles)
		ch <- result{preds, err}
	}()
	timer := time.NewTimer(p.cfg.StageTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.preds, r.err
	case <-timer.C:
		return nil, fmt.Errorf("%w (%s)", ErrStageTimeout, p.cfg.StageTimeout)
	}
}

// replayer periodically moves backlog entries into free spool capacity:
// crash recovery at startup and spill recovery after load drops are the
// same loop.
func (p *Pipeline) replayer() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.ReplayInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.replayOnce()
		case <-p.drainCh:
			return
		}
	}
}

// replayOnce re-enqueues as many backlog entries as the spool has room
// for, loading each envelope back from the intake journal.
func (p *Pipeline) replayOnce() {
	for {
		p.mu.Lock()
		if len(p.backlog) == 0 || len(p.awaiting)+len(p.queue) >= p.cfg.SpoolDepth {
			depth := len(p.backlog)
			p.mu.Unlock()
			mBacklogDepth.Set(float64(depth))
			return
		}
		var id string
		for id = range p.backlog {
			break
		}
		var env Envelope
		ok, err := p.intake.Get(id, &env)
		if !ok || err != nil {
			// A backlog marker without a readable envelope cannot recover;
			// drop it rather than spin on it. (Unreachable in practice:
			// markers are only created after a successful intake append.)
			delete(p.backlog, id)
			p.mu.Unlock()
			p.logf("ingest: backlog entry %s unreadable (ok=%v err=%v), dropped", id, ok, err)
			continue
		}
		p.queue = append(p.queue, spoolItem{id: id, region: env.Region, elevs: env.Elevations, enq: time.Now()})
		delete(p.backlog, id)
		p.inflight[id] = struct{}{}
		p.ready.Signal()
		p.mu.Unlock()
		p.replayed.Add(1)
		mReplayed.Inc()
	}
}

// Drain is the two-phase stop. Phase one (always): stop accepting, hand
// the batcher the rows no Sync has covered yet, let it classify everything
// spooled, then flush and close both journals. Phase two (ctx cancelled):
// stop waiting — whatever was not classified stays accepted-but-pending in
// the intake journal and replays on the next start. Drain is idempotent;
// concurrent calls share the same shutdown.
func (p *Pipeline) Drain(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	if !already {
		// Under p.mu no Accept can add to awaiting, so this fsync covers
		// every row in it.
		if err := p.intake.Flush(); err != nil {
			p.logf("ingest: drain: syncing intake journal: %v; unsynced rows replay on restart", err)
		} else {
			p.handOverLocked(p.handed + len(p.awaiting))
		}
		p.ready.Broadcast()
	}
	p.mu.Unlock()
	if !already {
		close(p.drainCh)
	}

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	var hardStop error
	select {
	case <-done:
	case <-ctx.Done():
		hardStop = ctx.Err()
	}

	p.closeOnce.Do(func() {
		errIntake := p.intake.Close()
		errResults := p.results.Close()
		if errIntake != nil {
			p.closeErr = errIntake
		} else {
			p.closeErr = errResults
		}
	})
	if hardStop != nil {
		return fmt.Errorf("ingest: hard stop, %d activities left for replay: %w",
			p.PendingLen(), hardStop)
	}
	return p.closeErr
}

// PendingLen is how many accepted activities have no recorded result yet
// (spooled, mid-classify, or backlogged).
func (p *Pipeline) PendingLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.backlog) + len(p.inflight)
}

// Stats is a point-in-time snapshot of the pipeline's accounting.
type Stats struct {
	// Accepted..Requeued are this process's flow counters (metrics.go
	// documents each).
	Accepted      int64 `json:"accepted"`
	Duplicates    int64 `json:"duplicates"`
	Shed          int64 `json:"shed"`
	Spilled       int64 `json:"spilled"`
	Classified    int64 `json:"classified"`
	Replayed      int64 `json:"replayed"`
	Requeued      int64 `json:"requeued"`
	BatchTimeouts int64 `json:"batch_timeouts"`
	BatchFailures int64 `json:"batch_failures"`
	// Restored is the backlog recovered from the journals at open.
	Restored int64 `json:"restored"`
	// SpoolDepth/Backlog/InFlight are instantaneous queue depths; the spool
	// counts rows waiting for a Sync and rows handed to the batcher.
	SpoolDepth int `json:"spool_depth"`
	Backlog    int `json:"backlog"`
	InFlight   int `json:"in_flight"`
	// Intake and Results are the journals' distinct-key counts; Results is
	// the cross-restart "classified exactly once" ledger the smoke tests
	// poll.
	Intake  int `json:"intake"`
	Results int `json:"results"`
}

// Stats snapshots the counters and depths.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	spool, backlog, inflight := len(p.awaiting)+len(p.queue), len(p.backlog), len(p.inflight)
	p.mu.Unlock()
	return Stats{
		Accepted:      p.accepted.Load(),
		Duplicates:    p.duplicates.Load(),
		Shed:          p.shed.Load(),
		Spilled:       p.spilled.Load(),
		Classified:    p.classified.Load(),
		Replayed:      p.replayed.Load(),
		Requeued:      p.requeued.Load(),
		BatchTimeouts: p.timeouts.Load(),
		BatchFailures: p.failures.Load(),
		Restored:      p.restored,
		SpoolDepth:    spool,
		Backlog:       backlog,
		InFlight:      inflight,
		Intake:        p.intake.Len(),
		Results:       p.results.Len(),
	}
}

// ResultIDs returns every classified activity ID in sorted order.
func (p *Pipeline) ResultIDs() []string { return p.results.Keys() }

// Result unmarshals the recorded prediction for id.
func (p *Pipeline) Result(id string) (string, bool) {
	var pred string
	ok, err := p.results.Get(id, &pred)
	if err != nil {
		return "", false
	}
	return pred, ok
}
