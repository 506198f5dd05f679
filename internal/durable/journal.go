package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Journal is an append-only log of completed work units. Each unit is a
// (key, JSON value) record; on open the log is replayed into memory so a
// resumed run can skip — and reuse the recorded results of — every unit that
// finished before the crash.
//
// Record format, one per line:
//
//	<8 hex digits: CRC32(payload)> <payload JSON>\n
//
// where payload is {"k": key, "v": value}. JSON never contains raw
// newlines, so a line is a record and a torn final line (the only kind of
// tear an append-only O_APPEND log can suffer) is detected by its missing
// newline or failing checksum. Replay keeps the valid prefix and Open
// truncates the tear away before appending resumes.
//
// Appends are batched: records go through a buffered writer, and Flush is a
// group commit. The fsync runs outside the append lock behind a synced-
// through count, so Puts keep appending while it runs, one fsync covers
// every record appended before it started, and a Flush whose records an
// earlier fsync already covered (or that has nothing pending) returns
// without one. Put also flushes every SyncEvery-th append through the same
// path. A crash can lose at most the records appended since the last fsync
// — those units re-run on resume, which is correct, just not free.
//
// A nil *Journal is valid and remembers nothing: Has reports false, Get
// finds nothing, Put and Flush succeed. Callers thread an optional journal
// without branching.
type Journal struct {
	mu   sync.Mutex // guards w, done and the counters below
	f    *os.File
	w    *bufio.Writer
	done map[string]json.RawMessage

	// syncMu serializes fsyncs. It is taken before mu, and mu is released
	// while the fsync runs.
	syncMu sync.Mutex

	// SyncEvery makes Put flush after every SyncEvery-th append: 1 syncs
	// every record, DefaultSyncEvery balances durability against sweep
	// throughput, and 0 leaves durability to the caller's Flush and Close.
	// Set before the first Put.
	SyncEvery int

	// appends counts records written this run; the first synced of them
	// are covered by an fsync.
	appends  int
	synced   int
	syncs    int
	restored int
}

// DefaultSyncEvery is the fsync batch size OpenJournal starts with.
const DefaultSyncEvery = 16

// journalRecord is the wire form of one completed unit.
type journalRecord struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// OpenJournal opens (creating if needed) the journal at path, replays every
// valid record, truncates any torn tail, and positions the file for
// appending. Corrupt interior records (a checksum failure before the last
// line) abort with a *FormatError — that is damage, not a tear.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening journal: %w", err)
	}
	done, valid, err := replayJournal(f)
	if err != nil {
		_ = f.Close()
		var fe *FormatError
		if errors.As(err, &fe) {
			fe.Path = path
		}
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("durable: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("durable: seeking journal end: %w", err)
	}
	journalRestored.Add(int64(len(done)))
	return &Journal{
		f:         f,
		w:         bufio.NewWriter(f),
		done:      done,
		SyncEvery: DefaultSyncEvery,
		restored:  len(done),
	}, nil
}

// replayJournal scans records from r, returning the replayed map and the
// byte offset of the end of the last valid record. A torn final record
// (missing newline, or bad checksum on the last line) ends the replay
// cleanly; a bad record with valid records after it is corruption and
// returns a *FormatError.
func replayJournal(r io.Reader) (map[string]json.RawMessage, int64, error) {
	done := make(map[string]json.RawMessage)
	br := bufio.NewReader(r)
	var valid int64
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a torn final record (or empty file).
			return done, valid, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("durable: reading journal: %w", err)
		}
		rec, perr := parseRecord(bytes.TrimSuffix(line, []byte("\n")))
		if perr != nil {
			// A parse failure on what the file claims is a complete line:
			// only acceptable as the final line (a tear that happened to
			// include the newline of a half-overwritten block).
			if _, err := br.ReadByte(); err == io.EOF {
				return done, valid, nil
			}
			perr.What = fmt.Sprintf("journal record (line %d)", lineNo)
			return nil, 0, perr
		}
		done[rec.K] = rec.V
		valid += int64(len(line))
	}
}

// parseRecord validates one journal line.
func parseRecord(line []byte) (journalRecord, *FormatError) {
	var rec journalRecord
	if len(line) < 9 || line[8] != ' ' {
		return rec, &FormatError{What: "journal record", Detail: "missing checksum prefix"}
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return rec, &FormatError{What: "journal record", Detail: "malformed checksum"}
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return rec, &FormatError{What: "journal record", Detail: fmt.Sprintf("crc32 %08x, want %08x", got, sum)}
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, &FormatError{What: "journal record", Detail: fmt.Sprintf("parsing JSON: %v", err)}
	}
	if rec.K == "" {
		return rec, &FormatError{What: "journal record", Detail: "empty key"}
	}
	return rec, nil
}

// Has reports whether key has a journaled result.
func (j *Journal) Has(key string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[key]
	return ok
}

// Get unmarshals the journaled value for key into v (which may be nil to
// only test presence). It reports whether the key was found; a found value
// that fails to unmarshal returns an error.
func (j *Journal) Get(key string, v any) (bool, error) {
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	raw, ok := j.done[key]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if v == nil {
		return true, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return true, fmt.Errorf("durable: journaled %q: %w", key, err)
	}
	return true, nil
}

// Put records a completed unit. The record is immediately visible to
// Has/Get and durable once an fsync covers it: the next Flush or Close, or
// the SyncEvery-th append. Re-putting a key overwrites its in-memory value
// and appends a superseding record.
func (j *Journal) Put(key string, v any) error {
	if j == nil {
		return nil
	}
	if key == "" {
		return fmt.Errorf("durable: journal key must be non-empty")
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("durable: marshaling journal value for %q: %w", key, err)
	}
	payload, err := json.Marshal(journalRecord{K: key, V: raw})
	if err != nil {
		return fmt.Errorf("durable: marshaling journal record for %q: %w", key, err)
	}

	j.mu.Lock()
	if _, err := fmt.Fprintf(j.w, "%08x %s\n", crc32.ChecksumIEEE(payload), payload); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("durable: appending journal record: %w", err)
	}
	j.done[key] = raw
	j.appends++
	seq := j.appends
	j.mu.Unlock()
	journalAppends.Inc()
	if j.SyncEvery > 0 && seq%j.SyncEvery == 0 {
		return j.syncThrough(seq)
	}
	return nil
}

// Flush makes every record appended so far durable (bufio flush + fsync),
// sharing the fsync with concurrent callers.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	seq := j.appends
	j.mu.Unlock()
	return j.syncThrough(seq)
}

// syncThrough is the group commit: it returns once an fsync covers the
// first seq records of this run. A caller that queued behind a running
// fsync usually finds its records covered by it and returns without its
// own; nothing pending means no fsync at all.
func (j *Journal) syncThrough(seq int) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	if j.synced >= seq {
		j.mu.Unlock()
		return nil
	}
	start := time.Now()
	err := j.w.Flush()
	through := j.appends
	j.mu.Unlock()
	if err != nil {
		return fmt.Errorf("durable: flushing journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: syncing journal: %w", err)
	}
	j.mu.Lock()
	j.synced = through
	j.syncs++
	j.mu.Unlock()
	journalSyncs.Inc()
	journalFsync.ObserveSince(start)
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.Flush(); err != nil {
		_ = j.f.Close()
		return err
	}
	return j.f.Close()
}

// Len returns the number of distinct journaled keys.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Restored returns how many units were replayed from disk at open — the
// work a resumed run gets for free.
func (j *Journal) Restored() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.restored
}

// Keys returns the journaled keys in sorted order.
func (j *Journal) Keys() []string {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	keys := make([]string, 0, len(j.done))
	for k := range j.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// JournalStats summarizes a journal's activity for run reports.
type JournalStats struct {
	// Keys is the number of distinct journaled units.
	Keys int `json:"keys"`
	// Restored counts units replayed from a previous run at open.
	Restored int `json:"restored"`
	// Appends counts records written this run.
	Appends int `json:"appends"`
	// Syncs counts fsyncs this run; one group commit can cover many
	// appends and many Flush calls.
	Syncs int `json:"syncs"`
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Keys: len(j.done), Restored: j.restored, Appends: j.appends, Syncs: j.syncs}
}
