package obsboot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
)

// Checkpoint run metadata: every durable CLI (elevmine, experiments, the
// scenario orchestrator) snapshots the same three things next to its journal
// — what configuration the journal belongs to, the journal's state, and the
// metrics registry (which carries the HTTP transport's health) so telemetry
// accumulates across a crash/resume boundary. This file is the one shared
// implementation; the CLIs used to carry private copies.

// runMetaVersion is the snapshot envelope version for meta files.
const runMetaVersion = 1

// RunMeta is the checkpoint metadata snapshot.
type RunMeta struct {
	// Tool names the binary that wrote the snapshot.
	Tool string `json:"tool"`
	// Config is the tool's run configuration, marshaled by the caller so
	// each CLI keeps its own shape.
	Config json.RawMessage `json:"config,omitempty"`
	// Journal is the work journal's state at write time.
	Journal durable.JournalStats `json:"journal"`
	// Metrics is the obs registry snapshot at write time; a resumed run
	// reloads it so counters and histograms accumulate across crashes.
	Metrics *obs.Dump `json:"metrics,omitempty"`
}

// OpenJournal opens the work journal <dir>/<name> ("" dir disables
// checkpointing; the returned nil journal remembers nothing). Without
// resume, any previous journal is discarded, so stale state from an
// unrelated run can never leak in. syncEvery sets the journal's fsync
// batch (records per fsync; 1 = every record); zero or negative keeps
// durable.DefaultSyncEvery — at worst a crash redoes a few units.
func OpenJournal(dir, name string, resume bool, syncEvery int) (*durable.Journal, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	j, err := durable.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if syncEvery > 0 {
		j.SyncEvery = syncEvery
	}
	return j, nil
}

// SaveRunMeta snapshots run metadata to <dir>/<name> (atomic + checksummed).
// When meta.Metrics is nil, the default registry is dumped in — the common
// case; pass an explicit dump only to snapshot a different registry. A ""
// dir is a no-op.
func SaveRunMeta(dir, name string, meta RunMeta) error {
	if dir == "" {
		return nil
	}
	if meta.Metrics == nil {
		dump := obs.DefaultRegistry().Dump()
		meta.Metrics = &dump
	}
	return durable.SaveSnapshot(filepath.Join(dir, name), runMetaVersion, meta)
}

// LoadRunMeta reads a meta snapshot. A missing file returns os.ErrNotExist
// (first run under this checkpoint dir); a torn or corrupt one returns a
// *durable.FormatError.
func LoadRunMeta(dir, name string) (*RunMeta, error) {
	var meta RunMeta
	if err := durable.LoadSnapshot(filepath.Join(dir, name), runMetaVersion, &meta); err != nil {
		return nil, err
	}
	return &meta, nil
}

// RestoreRunMetrics replays the previous run's metrics snapshot into the
// process registry, so /metrics and the final meta file stay cumulative
// across the crash/resume boundary. A missing meta file (or "" dir) is not
// an error; a present-but-unreadable one is.
func RestoreRunMetrics(dir, name string) error {
	if dir == "" {
		return nil
	}
	meta, err := LoadRunMeta(dir, name)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("obsboot: restoring run metrics: %w", err)
	}
	if meta.Metrics == nil {
		return nil
	}
	return obs.DefaultRegistry().Load(*meta.Metrics)
}
