package ingest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// testClassifier is a deterministic row-independent classifier: the label
// is a pure function of the profile's first sample, so streaming and batch
// paths are comparable. It can be gated shut (batches block until release)
// and counts how many times each profile was classified.
type testClassifier struct {
	gate chan struct{} // nil = always open

	mu      sync.Mutex
	started int             // batches that reached the classifier
	sizes   []int           // rows per batch, in arrival order
	counts  map[float64]int // profile[0] → classify count
}

func newTestClassifier() *testClassifier {
	return &testClassifier{counts: map[float64]int{}}
}

func label(first float64) string { return "region-" + strconv.Itoa(int(first)%4) }

func (c *testClassifier) ClassifyBatch(profiles [][]float64) ([]string, error) {
	c.mu.Lock()
	c.started++
	c.sizes = append(c.sizes, len(profiles))
	c.mu.Unlock()
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(profiles))
	for i, p := range profiles {
		c.counts[p[0]]++
		out[i] = label(p[0])
	}
	return out, nil
}

func (c *testClassifier) batchesStarted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started
}

func (c *testClassifier) batchSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.sizes)
}

func (c *testClassifier) maxCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for _, n := range c.counts {
		if n > max {
			max = n
		}
	}
	return max
}

func env(i int) Envelope {
	return Envelope{
		ID:         fmt.Sprintf("act-%06d", i),
		Elevations: []float64{float64(i), 1, 2},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mustAccept(t *testing.T, p *Pipeline, e Envelope, want Status) {
	t.Helper()
	got, err := p.Accept(e)
	if err != nil && !errors.Is(err, ErrDraining) {
		t.Fatalf("Accept(%s): %v", e.ID, err)
	}
	if got != want {
		t.Fatalf("Accept(%s) = %v, want %v", e.ID, got, want)
	}
}

func TestPipelineClassifiesExactlyOnce(t *testing.T) {
	cls := newTestClassifier()
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, MaxBatch: 8}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		mustAccept(t, p, env(i), Accepted)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	// Re-uploads of accepted IDs are duplicates, not new work.
	for i := 0; i < 5; i++ {
		mustAccept(t, p, env(i), Duplicate)
	}
	waitFor(t, "all activities classified", func() bool { return p.Stats().Results == n })

	if got := cls.maxCount(); got != 1 {
		t.Fatalf("some activity was classified %d times, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		pred, ok := p.Result(env(i).ID)
		if !ok || pred != label(float64(i)) {
			t.Fatalf("result %s = %q ok=%v, want %q", env(i).ID, pred, ok, label(float64(i)))
		}
	}
	st := p.Stats()
	if st.Accepted != n || st.Duplicates != 5 || st.Classified != n {
		t.Fatalf("stats = %+v", st)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineStreamingMatchesBatchOrder(t *testing.T) {
	// Whatever batch boundaries the spooler picked, the sorted results dump
	// must equal the one-batch-offline computation over the same envelopes.
	cls := newTestClassifier()
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, SpoolDepth: 4, MaxBatch: 3}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	want := map[string]string{}
	for i := 0; i < n; i++ {
		e := env(i)
		want[e.ID] = label(e.Elevations[0])
		for {
			status, err := p.Accept(e)
			if err != nil {
				t.Fatal(err)
			}
			if status != Shed {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all activities classified", func() bool { return p.Stats().Results == n })

	ids := p.ResultIDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatal("ResultIDs is not sorted")
	}
	if len(ids) != n {
		t.Fatalf("got %d results, want %d", len(ids), n)
	}
	for _, id := range ids {
		pred, _ := p.Result(id)
		if pred != want[id] {
			t.Fatalf("result %s = %q, want %q", id, pred, want[id])
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineCrashRecovery(t *testing.T) {
	// Incarnation one accepts and syncs, but its classifier never returns —
	// then the process "dies" (the pipeline is abandoned mid-flight, journals
	// never closed, exactly what SIGKILL leaves behind).
	dir := t.TempDir()
	stuck := newTestClassifier()
	stuck.gate = make(chan struct{}) // never closed
	p1, err := Open(dir, Config{Logf: discardLogf, SpoolDepth: 64, MaxBatch: 8}, stuck)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		mustAccept(t, p1, env(i), Accepted)
	}
	if err := p1.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := p1.Stats().Results; got != 0 {
		t.Fatalf("stuck incarnation classified %d activities", got)
	}
	// p1 is abandoned here: its batcher goroutine stays blocked forever.

	// Incarnation two restores the backlog from the journals and finishes
	// the job — every accepted activity classified exactly once.
	cls := newTestClassifier()
	p2, err := Open(dir, Config{Logf: discardLogf, MaxBatch: 8}, cls)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Stats().Restored; got != n {
		t.Fatalf("restored %d activities, want %d", got, n)
	}
	waitFor(t, "replayed activities classified", func() bool { return p2.Stats().Results == n })
	if got := cls.maxCount(); got != 1 {
		t.Fatalf("replay classified some activity %d times, want exactly 1", got)
	}
	// Re-uploading the whole firehose against the restarted instance is all
	// duplicates — the idempotency key survived the crash.
	for i := 0; i < n; i++ {
		mustAccept(t, p2, env(i), Duplicate)
	}
	if got := p2.Stats().Replayed; got != n {
		t.Fatalf("replayed = %d, want %d", got, n)
	}
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSpillAndReplay(t *testing.T) {
	// A gated classifier wedges the belt: the spool fills, later accepts
	// spill to the durable backlog instead of being refused or lost, and
	// when the classifier recovers everything is classified.
	cls := newTestClassifier()
	cls.gate = make(chan struct{})
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, SpoolDepth: 2, MaxBatch: 1, ReplayInterval: 10 * time.Millisecond}, cls)
	if err != nil {
		t.Fatal(err)
	}
	mustAccept(t, p, env(0), Accepted)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "classifier to wedge on the first batch", func() bool { return cls.batchesStarted() == 1 })

	const n = 10
	spilled := 0
	for i := 1; i < n; i++ {
		status, err := p.Accept(env(i))
		if err != nil {
			t.Fatal(err)
		}
		if status == Spilled {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("nothing spilled with a wedged classifier and a 2-deep spool")
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	close(cls.gate) // classifier recovers
	waitFor(t, "spilled activities replayed and classified", func() bool { return p.Stats().Results == n })
	st := p.Stats()
	if st.Spilled != int64(spilled) || st.Replayed < int64(spilled) {
		t.Fatalf("stats = %+v, want spilled=%d and replayed >= that", st, spilled)
	}
	if got := cls.maxCount(); got != 1 {
		t.Fatalf("spill/replay classified some activity %d times", got)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineShedsAtBacklogBound(t *testing.T) {
	cls := newTestClassifier()
	cls.gate = make(chan struct{})
	defer close(cls.gate)
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, SpoolDepth: 1, MaxBatch: 1, MaxBacklog: 2}, cls)
	if err != nil {
		t.Fatal(err)
	}
	mustAccept(t, p, env(0), Accepted)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "classifier to wedge", func() bool { return cls.batchesStarted() == 1 })
	mustAccept(t, p, env(1), Accepted) // fills the spool
	mustAccept(t, p, env(2), Spilled)  // backlog 1
	mustAccept(t, p, env(3), Spilled)  // backlog 2 = bound
	status, err := p.Accept(env(4))
	if err != nil {
		t.Fatal(err)
	}
	if status != Shed {
		t.Fatalf("accept past the backlog bound = %v, want Shed", status)
	}
	// A shed envelope was never journaled: it is not a duplicate later.
	if p.intake.Has(env(4).ID) {
		t.Fatal("shed envelope landed in the intake journal")
	}
	if hint := p.RetryAfterHint(); hint < time.Second {
		t.Fatalf("retry hint %v under full backlog, want >= 1s", hint)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); err == nil {
		t.Fatal("hard-stop drain with a wedged classifier reported success")
	}
}

func TestPipelineStageTimeoutRequeues(t *testing.T) {
	// The first batch hangs past the stage deadline; the pipeline abandons
	// it, requeues its members, and a later (healthy) call classifies them.
	var calls sync.Map
	first := make(chan struct{})
	var once sync.Once
	cls := classifierFunc(func(profiles [][]float64) ([]string, error) {
		hang := false
		once.Do(func() { hang = true })
		if hang {
			<-first // held past the deadline; released at test end
		}
		out := make([]string, len(profiles))
		for i, p := range profiles {
			n, _ := calls.LoadOrStore(p[0], new(int))
			*(n.(*int))++
			out[i] = label(p[0])
		}
		return out, nil
	})
	defer close(first)

	p, err := Open(t.TempDir(), Config{Logf: discardLogf,
		MaxBatch:       4,
		StageTimeout:   30 * time.Millisecond,
		ReplayInterval: 10 * time.Millisecond,
	}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		mustAccept(t, p, env(i), Accepted)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "timed-out batch to replay and classify", func() bool { return p.Stats().Results == n })
	st := p.Stats()
	if st.BatchTimeouts == 0 {
		t.Fatalf("stats = %+v, want at least one batch timeout", st)
	}
	if st.Requeued == 0 || st.Replayed == 0 {
		t.Fatalf("stats = %+v, want requeue + replay after the timeout", st)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineRecoversFromInjectedFaults(t *testing.T) {
	// A classifier that fails half its batches (seeded) still converges:
	// failed batches requeue and replay until everything is classified once.
	cls := newTestClassifier()
	faulty := WithFaults(cls, FaultConfig{Seed: 7, FailProb: 0.5})
	p, err := Open(t.TempDir(), Config{Logf: discardLogf,
		MaxBatch:       4,
		ReplayInterval: 5 * time.Millisecond,
	}, faulty)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		mustAccept(t, p, env(i), Accepted)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all activities classified despite faults", func() bool { return p.Stats().Results == n })
	if got := cls.maxCount(); got != 1 {
		t.Fatalf("fault recovery classified some activity %d times", got)
	}
	if p.Stats().BatchFailures == 0 {
		t.Fatal("the seeded fault plan never fired")
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineDrainFlushesAndRefuses(t *testing.T) {
	cls := newTestClassifier()
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, MaxBatch: 8}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAccept(t, p, env(i), Accepted)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Results; got != n {
		t.Fatalf("drain left %d of %d activities unclassified", n-got, n)
	}
	status, err := p.Accept(env(n))
	if status != Shed || !errors.Is(err, ErrDraining) {
		t.Fatalf("accept after drain = %v, %v; want Shed, ErrDraining", status, err)
	}
	// Idempotent: a second drain is a no-op, not a panic or deadlock.
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineHandsOverOnlyAtSyncOrDrain(t *testing.T) {
	// No Sync: the rows hold spool slots but never reach the classifier,
	// even one row at a time; the drain hands them all over.
	cls := newTestClassifier()
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, MaxBatch: 1}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAccept(t, p, env(i), Accepted)
	}
	if got := cls.batchesStarted(); got != 0 {
		t.Fatalf("%d batches reached the classifier before any Sync", got)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Results; got != n {
		t.Fatalf("drain classified %d of %d unsynced activities", got, n)
	}
}

func TestPipelineSyncHandsRequestToIdleBatcher(t *testing.T) {
	cls := newTestClassifier()
	p, err := Open(t.TempDir(), Config{Logf: discardLogf}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAccept(t, p, env(i), Accepted)
	}
	// Neither journal fsyncs on Put: the intake waits for the Sync, the
	// results for the drain.
	if got := p.intake.Stats().Syncs; got != 0 {
		t.Fatalf("intake journal ran %d fsyncs before the Sync", got)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := p.intake.Stats().Syncs; got != 1 {
		t.Fatalf("Sync ran %d intake fsyncs, want 1", got)
	}
	waitFor(t, "the request classified", func() bool { return p.Stats().Results == n })
	if got := cls.batchSizes(); !slices.Equal(got, []int{n}) {
		t.Fatalf("batches = %v, want one of %d rows", got, n)
	}
	if got := p.results.Stats().Syncs; got != 0 {
		t.Fatalf("results journal ran %d fsyncs on the classify path", got)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.results.Stats().Syncs; got != 1 {
		t.Fatalf("drain ran %d results fsyncs, want 1", got)
	}
}

func TestPipelineRowsSyncedDuringClassifyFormNextBatch(t *testing.T) {
	cls := newTestClassifier()
	cls.gate = make(chan struct{})
	p, err := Open(t.TempDir(), Config{Logf: discardLogf}, cls)
	if err != nil {
		t.Fatal(err)
	}
	accept := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			mustAccept(t, p, env(i), Accepted)
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	accept(0, 1)
	waitFor(t, "classifier to block on the first request", func() bool { return cls.batchesStarted() == 1 })
	accept(1, 6) // two requests synced while the classify is blocked
	accept(6, 10)
	close(cls.gate)
	waitFor(t, "everything classified", func() bool { return p.Stats().Results == 10 })
	if got := cls.batchSizes(); !slices.Equal(got, []int{1, 9}) {
		t.Fatalf("batches = %v, want [1 9]", got)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineUnsyncedRowsHoldSpoolSlots(t *testing.T) {
	cls := newTestClassifier()
	cls.gate = make(chan struct{})
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, SpoolDepth: 4, ReplayInterval: 5 * time.Millisecond}, cls)
	if err != nil {
		t.Fatal(err)
	}
	mustAccept(t, p, env(0), Accepted)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "classifier to block", func() bool { return cls.batchesStarted() == 1 })
	mustAccept(t, p, env(1), Accepted)
	mustAccept(t, p, env(2), Accepted)
	if err := p.Sync(); err != nil { // two rows queued behind the blocked classify
		t.Fatal(err)
	}
	mustAccept(t, p, env(3), Accepted)
	mustAccept(t, p, env(4), Accepted) // queued + awaiting a Sync = SpoolDepth
	mustAccept(t, p, env(5), Spilled)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAccept(t, p, env(6), Spilled)
	close(cls.gate)
	waitFor(t, "spilled rows replayed and classified", func() bool { return p.Stats().Results == 7 })
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineConcurrentRequestsClassifyExactlyOnce(t *testing.T) {
	// Requests accept and Sync from several goroutines at once: each row
	// is handed over exactly once, by whichever Sync's fsync covered it.
	cls := newTestClassifier()
	p, err := Open(t.TempDir(), Config{Logf: discardLogf, MaxBatch: 16}, cls)
	if err != nil {
		t.Fatal(err)
	}
	const clients, requests, lines = 4, 10, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				for i := 0; i < lines; i++ {
					e := env((c*requests+r)*lines + i)
					if status, err := p.Accept(e); status != Accepted || err != nil {
						t.Errorf("Accept(%s) = %v, %v", e.ID, status, err)
						return
					}
				}
				if err := p.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	const n = clients * requests * lines
	waitFor(t, "every request classified", func() bool { return p.Stats().Results == n })
	if got := cls.maxCount(); got != 1 {
		t.Fatalf("some activity was classified %d times, want exactly 1", got)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// discardLogf keeps expected requeue/timeout noise out of test output (and
// avoids logging from pipeline goroutines after a test returns).
func discardLogf(string, ...any) {}

// classifierFunc adapts a function to the Classifier interface.
type classifierFunc func([][]float64) ([]string, error)

func (f classifierFunc) ClassifyBatch(p [][]float64) ([]string, error) { return f(p) }
