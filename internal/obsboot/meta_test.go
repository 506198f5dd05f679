package obsboot

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
)

func TestRunMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := RunMeta{
		Tool:    "testtool",
		Config:  json.RawMessage(`{"grid":4}`),
		Journal: durable.JournalStats{Keys: 3},
	}
	if err := SaveRunMeta(dir, "test.meta", in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadRunMeta(dir, "test.meta")
	if err != nil {
		t.Fatal(err)
	}
	if out.Tool != "testtool" || string(out.Config) != `{"grid":4}` {
		t.Errorf("round trip lost tool/config: %+v", out)
	}
	if out.Journal.Keys != 3 {
		t.Errorf("journal stats lost: %+v", out.Journal)
	}
	// SaveRunMeta fills Metrics from the default registry when nil.
	if out.Metrics == nil {
		t.Error("metrics snapshot not filled in")
	}
}

func TestSaveRunMetaNoDirIsNoop(t *testing.T) {
	if err := SaveRunMeta("", "x.meta", RunMeta{Tool: "t"}); err != nil {
		t.Fatalf("empty dir should be a no-op: %v", err)
	}
}

func TestRestoreRunMetrics(t *testing.T) {
	// Missing file (first run) and empty dir are both non-errors.
	if err := RestoreRunMetrics(t.TempDir(), "absent.meta"); err != nil {
		t.Errorf("missing meta file: %v", err)
	}
	if err := RestoreRunMetrics("", "absent.meta"); err != nil {
		t.Errorf("empty dir: %v", err)
	}

	// A saved snapshot replays into the registry cumulatively.
	dir := t.TempDir()
	c := obs.GetCounter("obsboot_meta_test_total")
	c.Add(5)
	if err := SaveRunMeta(dir, "run.meta", RunMeta{Tool: "t"}); err != nil {
		t.Fatal(err)
	}
	c.Add(-c.Value()) // simulate a fresh process
	if err := RestoreRunMetrics(dir, "run.meta"); err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != 5 {
		t.Errorf("restored counter = %d, want 5", got)
	}

	// A corrupt meta file is an error, not silence.
	if err := os.WriteFile(filepath.Join(dir, "torn.meta"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RestoreRunMetrics(dir, "torn.meta"); err == nil {
		t.Error("corrupt meta file restored silently")
	}
}

func TestOpenJournal(t *testing.T) {
	j, err := OpenJournal("", "x.journal", false, 0)
	if err != nil || j != nil {
		t.Fatalf("OpenJournal(\"\") = %v, %v; want nil, nil", j, err)
	}

	dir := filepath.Join(t.TempDir(), "nested") // MkdirAll territory
	j1, err := OpenJournal(dir, "work.journal", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// resume keeps entries; fresh open discards them.
	j2, err := OpenJournal(dir, "work.journal", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Has("k") {
		t.Error("resume open lost the journal entry")
	}
	j2.Close()
	j3, err := OpenJournal(dir, "work.journal", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Has("k") {
		t.Error("fresh open kept a stale journal entry")
	}
	if j3.SyncEvery != durable.DefaultSyncEvery {
		t.Errorf("syncEvery 0 overrode the journal default: %d", j3.SyncEvery)
	}

	j4, err := OpenJournal(dir, "tight.journal", false, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if j4.SyncEvery != 2 {
		t.Errorf("SyncEvery = %d, want 2", j4.SyncEvery)
	}
}
