// Package durable is the crash-safety layer under the mining and experiment
// pipelines. The paper's city- and borough-scale datasets (Tables II-III)
// come from hours-long grid sweeps against rate-limited services; a crash or
// a ctrl-C must not restart them from zero and re-burn API quota. The
// package provides three building blocks:
//
//   - an atomic file writer (temp file + fsync + rename) so no output file
//     is ever observed torn (atomic.go);
//   - CRC32-checked, versioned snapshot envelopes for one-shot state
//     (snapshot.go);
//   - an append-only work journal recording completed work units — grid
//     cells, elevation profiles, per-class sweeps, experiment names — that
//     is replayed on startup so a resumed run skips finished units
//     (journal.go);
//
// plus the supervision glue that makes long runs survivable: a worker pool
// with per-worker panic recovery and per-unit deadline budgets (pool.go)
// and SIGINT/SIGTERM drain handling (signal.go). A resumed run produces
// byte-identical output to an uninterrupted run; the resume tests in this
// package and in internal/segments pin that.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicFile is a file being written that becomes visible at its final path
// only on Commit. Until then the bytes live in a temp file in the same
// directory; Commit fsyncs the data, renames it into place, and fsyncs the
// directory so the rename itself is durable. A crash before Commit leaves
// the previous file (if any) untouched.
type AtomicFile struct {
	f    *os.File
	path string
	perm os.FileMode
	done bool
}

// CreateAtomic starts an atomic write of path. The caller must finish with
// Commit or Abort; a dropped AtomicFile leaks only a temp file, never a torn
// target.
func CreateAtomic(path string, perm os.FileMode) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("durable: creating temp for %s: %w", path, err)
	}
	return &AtomicFile{f: f, path: path, perm: perm}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit makes the written bytes visible at the final path: fsync, chmod,
// rename over the target, fsync the directory. After Commit the AtomicFile
// is spent.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("durable: %s already committed or aborted", a.path)
	}
	a.done = true
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		_ = a.f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: syncing %s: %w", a.path, err)
	}
	if err := a.f.Chmod(a.perm); err != nil {
		_ = a.f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: chmod %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: closing %s: %w", a.path, err)
	}
	if err := os.Rename(tmp, a.path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: renaming into %s: %w", a.path, err)
	}
	return syncDir(filepath.Dir(a.path))
}

// Abort discards the write, leaving any previous file at the path intact.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	_ = a.f.Close()
	_ = os.Remove(a.f.Name())
}

// WriteFileAtomic writes a whole file through write and commits it
// atomically: either the previous content (or absence) survives, or the new
// content is fully in place — never a torn file. Any error from write aborts
// the commit.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	a, err := CreateAtomic(path, perm)
	if err != nil {
		return err
	}
	if err := write(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}

// syncDir fsyncs a directory so a just-committed rename survives a crash.
// Filesystems that refuse to fsync directories (some CI overlays) are
// tolerated: the rename already happened, only its durability window widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
