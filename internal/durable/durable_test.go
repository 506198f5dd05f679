package durable

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// --- atomic writer ---

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, "second")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
}

func TestWriteFileAtomicFailedWriteLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("disk on fire")
	err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, _ = io.WriteString(w, "half a replace")
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "precious" {
		t.Fatalf("old content clobbered: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp file left behind: %v", ents)
	}
}

func TestAtomicFileAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "never.json")
	a, err := CreateAtomic(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(a, "doomed")
	a.Abort()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted file exists: %v", err)
	}
}

// --- snapshots ---

type snapPayload struct {
	Name  string    `json:"name"`
	Cells []float64 `json:"cells"`
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ck")
	in := snapPayload{Name: "sweep", Cells: []float64{1.5, -2.25, 1e-9}}
	if err := SaveSnapshot(path, 3, in); err != nil {
		t.Fatal(err)
	}
	var out snapPayload
	if err := LoadSnapshot(path, 3, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Cells) != len(in.Cells) || out.Cells[1] != -2.25 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ck")
	if err := SaveSnapshot(path, 1, snapPayload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"version", func(b []byte) []byte { b[4] ^= 0xFF; return b }},
		{"bitflip payload", func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"huge length", func(b []byte) []byte {
			b[6], b[7], b[8], b[9] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".ck")
			if err := os.WriteFile(p, tc.mutate(append([]byte(nil), blob...)), 0o644); err != nil {
				t.Fatal(err)
			}
			var out snapPayload
			err := LoadSnapshot(p, 1, &out)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *FormatError", err)
			}
			if fe.Path != p {
				t.Fatalf("FormatError.Path = %q, want %q", fe.Path, p)
			}
		})
	}
}

func TestLoadSnapshotMissingFile(t *testing.T) {
	err := LoadSnapshot(filepath.Join(t.TempDir(), "nope.ck"), 1, &snapPayload{})
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

// --- journal ---

func TestJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "units.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Put(fmt.Sprintf("cell/%d", i), []int{i, i * i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 10 || j2.Restored() != 10 {
		t.Fatalf("len=%d restored=%d, want 10/10", j2.Len(), j2.Restored())
	}
	var v []int
	ok, err := j2.Get("cell/7", &v)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if v[1] != 49 {
		t.Fatalf("cell/7 = %v", v)
	}
	if j2.Has("cell/10") {
		t.Fatal("phantom key")
	}
}

// TestJournalTornTail truncates a journal at every possible byte offset and
// verifies that reopen yields exactly the records whose writes completed,
// then keeps accepting appends — the on-disk crash model for SIGKILL during
// an fsync batch.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.wal")
	j, err := OpenJournal(ref)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{0}
	blob := []byte{}
	for i := 0; i < 5; i++ {
		if err := j.Put(fmt.Sprintf("u%d", i), i); err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		blob = b
		offsets = append(offsets, int64(len(b)))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recordEnd := func(cut int64) int {
		n := 0
		for _, off := range offsets[1:] {
			if off <= cut {
				n++
			}
		}
		return n
	}
	for cut := int64(0); cut <= int64(len(blob)); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(p, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, err := OpenJournal(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got, want := jt.Len(), recordEnd(cut); got != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, got, want)
		}
		// The journal must keep working after tail truncation.
		if err := jt.Put("after", "tear"); err != nil {
			t.Fatalf("cut %d: append after tear: %v", cut, err)
		}
		if err := jt.Close(); err != nil {
			t.Fatal(err)
		}
		jr, err := OpenJournal(p)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if !jr.Has("after") {
			t.Fatalf("cut %d: post-tear record lost", cut)
		}
		jr.Close()
	}
}

func TestJournalInteriorCorruptionIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "units.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Put(fmt.Sprintf("u%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[12] ^= 0x40 // flip a bit inside the first record's payload
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FormatError", err)
	}
}

// failAfterWriter fails every write after the first n bytes — the injected
// failing io.Writer of the fault-injection checklist. Bytes accepted before
// the failure are captured, modeling a partial (torn) write.
type failAfterWriter struct {
	buf   bytes.Buffer
	n     int
	fails int
}

var errInjected = errors.New("injected write failure")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	room := w.n - w.buf.Len()
	if room <= 0 {
		w.fails++
		return 0, errInjected
	}
	if len(p) <= room {
		return w.buf.Write(p)
	}
	nn, _ := w.buf.Write(p[:room])
	w.fails++
	return nn, errInjected
}

// TestJournalMidWriteFailure drives Put into an injected failing writer and
// verifies (a) the error surfaces, (b) the unit is not marked done, and
// (c) replaying the torn bytes yields only fully-written records.
func TestJournalMidWriteFailure(t *testing.T) {
	fw := &failAfterWriter{n: 64}
	j := &Journal{
		w:         bufio.NewWriterSize(fw, 1), // write-through: every Put hits fw
		done:      map[string]json.RawMessage{},
		SyncEvery: 1 << 30, // keep syncLocked (and its nil file) out of play
	}

	var firstErr error
	puts := 0
	for i := 0; i < 10; i++ {
		err := j.Put(fmt.Sprintf("unit/%d", i), map[string]int{"i": i})
		if err != nil {
			firstErr = err
			break
		}
		puts++
	}
	if firstErr == nil {
		t.Fatal("injected writer never tripped")
	}
	if !errors.Is(firstErr, errInjected) {
		t.Fatalf("err = %v, want injected failure", firstErr)
	}
	if j.Has(fmt.Sprintf("unit/%d", puts)) {
		t.Fatal("failed unit marked done in memory")
	}

	done, _, err := replayJournal(bytes.NewReader(fw.buf.Bytes()))
	if err != nil {
		t.Fatalf("replaying torn bytes: %v", err)
	}
	if len(done) > puts {
		t.Fatalf("replay resurrected %d records, only %d completed", len(done), puts)
	}
	for i := 0; i < len(done); i++ {
		if _, ok := done[fmt.Sprintf("unit/%d", i)]; !ok {
			t.Fatalf("replayed set is not a prefix: %v", done)
		}
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	if j.Has("k") {
		t.Fatal("nil journal remembered something")
	}
	ok, err := j.Get("k", nil)
	if ok || err != nil {
		t.Fatalf("Get on nil journal: %v %v", ok, err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// fsyncCount reads the process-wide group-commit fsync histogram's count.
func fsyncCount() uint64 { return journalFsync.Count() }

// TestJournalFlushWithNothingPendingSkipsFsync closes the file under a
// fully synced journal: a Flush that still called fsync would fail on it.
func TestJournalFlushWithNothingPendingSkipsFsync(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "units.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("u", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	syncs, hist := j.Stats().Syncs, fsyncCount()
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Flush(); err != nil {
			t.Fatalf("Flush with nothing pending touched the file: %v", err)
		}
	}
	if got := j.Stats().Syncs; got != syncs {
		t.Fatalf("Stats().Syncs moved from %d to %d with nothing pending", syncs, got)
	}
	if got := fsyncCount(); got != hist {
		t.Fatalf("elevpriv_journal_fsync_seconds count moved from %d to %d with nothing pending", hist, got)
	}
}

// TestJournalGroupCommit races n Put+Flush pairs: every record survives a
// reopen, and no Flush needed more than its own fsync.
func TestJournalGroupCommit(t *testing.T) {
	const n = 8
	path := filepath.Join(t.TempDir(), "units.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	hist := fsyncCount()
	start := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if err := j.Put(fmt.Sprintf("u%d", i), i); err != nil {
				errs <- err
				return
			}
			errs <- j.Flush()
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Syncs; got < 1 || got > n {
		t.Fatalf("%d concurrent Flushes ran %d fsyncs, want 1..%d", n, got, n)
	}
	if got := fsyncCount() - hist; got > n {
		t.Fatalf("fsync histogram counted %d fsyncs for %d Flushes", got, n)
	}
	// Every record is on disk already: reopen without closing, as a crash
	// would leave it.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for i := 0; i < n; i++ {
		if !j2.Has(fmt.Sprintf("u%d", i)) {
			t.Fatalf("u%d lost after its Flush returned", i)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalSyncEvery(t *testing.T) {
	for _, tc := range []struct {
		every, puts, want int
	}{
		{every: DefaultSyncEvery, puts: 40, want: 2}, // the 16th and 32nd appends
		{every: 1, puts: 5, want: 5},
		{every: 0, puts: 40, want: 0}, // durability left to Flush/Close
	} {
		j, err := OpenJournal(filepath.Join(t.TempDir(), "units.wal"))
		if err != nil {
			t.Fatal(err)
		}
		j.SyncEvery = tc.every
		for i := 0; i < tc.puts; i++ {
			if err := j.Put(fmt.Sprintf("u%d", i), i); err != nil {
				t.Fatal(err)
			}
		}
		if got := j.Stats().Syncs; got != tc.want {
			t.Errorf("SyncEvery %d: %d puts ran %d fsyncs, want %d", tc.every, tc.puts, got, tc.want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// --- pool ---

func TestPoolPanicBecomesPanicError(t *testing.T) {
	p := Pool{Workers: 4}
	var ran atomic.Int32
	err := p.ForEachIndex(context.Background(), 8, func(ctx context.Context, i int) error {
		if i == 3 {
			panic("unit 3 went sideways")
		}
		ran.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "unit 3 went sideways" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
}

func TestPoolLowestIndexErrorWins(t *testing.T) {
	p := Pool{Workers: 8}
	e2 := errors.New("e2")
	e5 := errors.New("e5")
	for trial := 0; trial < 20; trial++ {
		// Barrier: every unit must be in flight before either error
		// returns. Without it, unit 5's failure can cancel the pool
		// before a worker runs unit 2, and the unit is (correctly)
		// skipped rather than failed — lowest-index only orders the
		// errors of units that actually ran.
		var started sync.WaitGroup
		started.Add(8)
		err := p.ForEachIndex(context.Background(), 8, func(ctx context.Context, i int) error {
			started.Done()
			started.Wait()
			switch i {
			case 2:
				return e2
			case 5:
				return e5
			}
			return nil
		})
		if !errors.Is(err, e2) {
			t.Fatalf("trial %d: err = %v, want e2", trial, err)
		}
	}
}

func TestPoolUnitTimeout(t *testing.T) {
	p := Pool{Workers: 2, UnitTimeout: 20 * time.Millisecond}
	err := p.ForEachIndex(context.Background(), 3, func(ctx context.Context, i int) error {
		if i == 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestPoolDrainFinishesInFlight(t *testing.T) {
	drain := make(chan struct{})
	started := make(chan int, 16)
	var finished atomic.Int32
	p := Pool{Workers: 2, Drain: drain}
	err := p.ForEachIndex(context.Background(), 16, func(ctx context.Context, i int) error {
		started <- i
		if i == 0 {
			close(drain)
			time.Sleep(30 * time.Millisecond) // in-flight work outlives the drain signal
		}
		finished.Add(1)
		return nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	close(started)
	n := 0
	for range started {
		n++
	}
	if int(finished.Load()) != n {
		t.Fatalf("started %d units but finished %d: drain killed in-flight work", n, finished.Load())
	}
	if n >= 16 {
		t.Fatal("drain did not stop dispatch")
	}
}

// --- runner ---

func TestNotifyShutdownDrainProtocol(t *testing.T) {
	sd := NotifyShutdown(context.Background())
	defer sd.Stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sd.Draining:
	case <-time.After(2 * time.Second):
		t.Fatal("first signal did not start draining")
	}
	if sd.Context().Err() != nil {
		t.Fatal("first signal hard-canceled the context")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sd.Context().Done():
	case <-time.After(2 * time.Second):
		t.Fatal("second signal did not cancel the hard context")
	}
}
