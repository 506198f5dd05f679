package durable

import (
	"errors"
	"sync"
	"time"
)

// UnitState is the live state of one work unit on a Board.
type UnitState string

// The unit lifecycle: Pending until dispatched, Running while executing,
// then exactly one terminal state. Terminal states are sticky — the first
// terminal transition wins — so a supervising layer (the pool) and the unit
// body can both report without clobbering each other.
const (
	StatePending     UnitState = "pending"
	StateRunning     UnitState = "running"
	StateDone        UnitState = "done"
	StateRestored    UnitState = "restored"
	StateFailed      UnitState = "failed"
	StateInterrupted UnitState = "interrupted"
	StateCanceled    UnitState = "canceled"
)

// Terminal reports whether the state is final.
func (s UnitState) Terminal() bool {
	switch s {
	case StateDone, StateRestored, StateFailed, StateInterrupted, StateCanceled:
		return true
	}
	return false
}

// UnitSnapshot is one unit's live status as an admin surface renders it.
type UnitSnapshot struct {
	// Key identifies the unit.
	Key string `json:"key"`
	// State is the unit's current lifecycle state.
	State UnitState `json:"state"`
	// Err is the failure message for StateFailed, empty otherwise.
	Err string `json:"error,omitempty"`
	// StartedAt is when the unit began running (zero if never dispatched).
	StartedAt time.Time `json:"started_at,omitempty"`
	// FinishedAt is when the unit reached a terminal state.
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

type boardUnit struct {
	state    UnitState
	err      string
	started  time.Time
	finished time.Time
}

// Board is the drain-aware live status surface over a set of keyed work
// units: the pool (and unit bodies) record transitions, an admin API reads
// snapshots while the run is in flight. A nil *Board is valid and records
// nothing, so callers thread an optional board without branching. All
// methods are safe for concurrent use.
type Board struct {
	mu    sync.Mutex
	order []string
	units map[string]*boardUnit
}

// NewBoard creates a board tracking the given keys (more may be registered
// later).
func NewBoard(keys ...string) *Board {
	b := &Board{units: make(map[string]*boardUnit)}
	b.Register(keys...)
	return b
}

// Register adds keys in Pending state. Already-known keys are left alone, so
// registration is idempotent.
func (b *Board) Register(keys ...string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range keys {
		if _, ok := b.units[k]; ok {
			continue
		}
		b.units[k] = &boardUnit{state: StatePending}
		b.order = append(b.order, k)
	}
}

// transition applies a state change under the sticky-terminal rule: once a
// unit is terminal, later transitions are ignored. Unknown keys are
// registered on the fly so ad-hoc units still show up.
func (b *Board) transition(key string, state UnitState, errMsg string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	u, ok := b.units[key]
	if !ok {
		u = &boardUnit{state: StatePending}
		b.units[key] = u
		b.order = append(b.order, key)
	}
	if u.state.Terminal() {
		return
	}
	u.state = state
	u.err = errMsg
	now := time.Now()
	if state == StateRunning && u.started.IsZero() {
		u.started = now
	}
	if state.Terminal() {
		u.finished = now
	}
}

// Start marks the unit running.
func (b *Board) Start(key string) { b.transition(key, StateRunning, "") }

// Finish records the unit's outcome: done on nil error, interrupted when the
// error unwraps to ErrInterrupted, failed otherwise. No-op once terminal.
func (b *Board) Finish(key string, err error) {
	switch {
	case err == nil:
		b.transition(key, StateDone, "")
	case errors.Is(err, ErrInterrupted):
		b.transition(key, StateInterrupted, "")
	default:
		b.transition(key, StateFailed, err.Error())
	}
}

// Restored marks the unit's result as replayed from a journal.
func (b *Board) Restored(key string) { b.transition(key, StateRestored, "") }

// Canceled marks the unit canceled (by an admin, before it ran).
func (b *Board) Canceled(key string) { b.transition(key, StateCanceled, "") }

// Interrupt marks the unit interrupted (drained before it ran).
func (b *Board) Interrupt(key string) { b.transition(key, StateInterrupted, "") }

// Snapshot returns every unit's status in registration order.
func (b *Board) Snapshot() []UnitSnapshot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]UnitSnapshot, 0, len(b.order))
	for _, k := range b.order {
		u := b.units[k]
		out = append(out, UnitSnapshot{
			Key: k, State: u.state, Err: u.err,
			StartedAt: u.started, FinishedAt: u.finished,
		})
	}
	return out
}

// Get returns one unit's status.
func (b *Board) Get(key string) (UnitSnapshot, bool) {
	if b == nil {
		return UnitSnapshot{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	u, ok := b.units[key]
	if !ok {
		return UnitSnapshot{}, false
	}
	return UnitSnapshot{Key: key, State: u.state, Err: u.err,
		StartedAt: u.started, FinishedAt: u.finished}, true
}

// Counts tallies units by state — the shape an admin list endpoint and a
// shutdown summary both want.
func (b *Board) Counts() map[UnitState]int {
	counts := make(map[UnitState]int)
	if b == nil {
		return counts
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, u := range b.units {
		counts[u.state]++
	}
	return counts
}
