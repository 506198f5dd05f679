// Package ingest is the live-attack ingestion pipeline: an NDJSON firehose
// of shared workout activities flows through a bounded spooler into batched
// sparse classification against a pre-trained attack model, with durable
// journals making delivery idempotent — an activity acknowledged by the
// front door is classified exactly once, across crashes, with predictions
// byte-identical to the offline batch path.
//
// The pipeline is the harvester→spooler→publisher shape (ROADMAP item 2):
//
//	HTTP POST /ingest ── decode+bound ── intake journal (one fsync per
//	      │                                   │         request, before ack)
//	      ├── spool (SpoolDepth slots) ───────┤ spool full → backlog (spill)
//	      │   rows wait for the request's Sync, then queue for the batcher
//	      │                                   │
//	  batcher (idle → take ≤ MaxBatch) ── classifier (stage deadline,
//	      │                                   │        fault-injectable)
//	  results journal (fsync at drain) ◄──────┘ failure → backlog (requeue)
//	      ▲
//	  replayer (drains backlog into the spool when capacity returns;
//	            on restart, backlog = intake − results)
//
// Memory is bounded end to end: the spool holds at most SpoolDepth rows,
// the backlog is capped by Config.MaxBacklog (past it, accepts shed with
// 429 so pooled clients back off), and per-line decoding enforces
// MaxLineBytes so a hostile upload cannot balloon the heap.
package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
)

// Default decode bounds. MaxLineBytes mirrors persistence.go's
// maxEnvelopeBytes idea at firehose scale: the length is hostile input, so
// it is bounded before any line-sized buffer grows.
const (
	// DefaultMaxLineBytes bounds one NDJSON line (1 MiB holds a ~60k-sample
	// profile; real activities are two orders of magnitude smaller).
	DefaultMaxLineBytes = 1 << 20
	// DefaultMaxProfileSamples bounds one activity's elevation count.
	DefaultMaxProfileSamples = 8192
	// maxIDBytes bounds the activity identifier, which becomes a journal
	// key and a results-dump field.
	maxIDBytes = 256
)

// Envelope is one uploaded activity on the NDJSON firehose: an idempotency
// key, the elevation profile (the only signal the attack needs), and an
// optional ground-truth region label carried through for live accuracy
// accounting in synthetic workloads.
type Envelope struct {
	// ID is the activity's idempotency key: re-uploads of an accepted ID
	// are acknowledged without being re-classified.
	ID string `json:"id"`
	// Region is the optional ground-truth label (synthetic firehoses only).
	Region string `json:"region,omitempty"`
	// Elevations is the activity's elevation profile.
	Elevations []float64 `json:"elevations"`
}

// Limits bounds what the decoder will accept from one hostile line.
type Limits struct {
	// MaxLineBytes bounds one NDJSON line, envelope JSON included.
	MaxLineBytes int
	// MaxProfileSamples bounds the elevation count of one activity.
	MaxProfileSamples int
}

// withDefaults fills zero fields with the package defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = DefaultMaxLineBytes
	}
	if l.MaxProfileSamples <= 0 {
		l.MaxProfileSamples = DefaultMaxProfileSamples
	}
	return l
}

// ErrLineTooLong reports an NDJSON line past Limits.MaxLineBytes. The
// server maps it (and every other decode error) to a 400, never an
// allocation.
var ErrLineTooLong = errors.New("ingest: NDJSON line exceeds the byte bound")

// FormatError describes one malformed firehose line: bad JSON, a missing or
// oversized field, or a non-finite elevation. It is client error, not
// server state — the HTTP layer maps it to 400.
type FormatError struct {
	Detail string
}

func (e *FormatError) Error() string {
	return "ingest: malformed activity line: " + e.Detail
}

// DecodeLine parses and validates one NDJSON activity line under lim. The
// byte bound is checked before the JSON decoder ever runs, so an oversized
// hostile line costs its length check and nothing more. Unknown fields are
// rejected — a typoed field name must fail loudly, not silently drop the
// payload it was meant to carry.
func DecodeLine(line []byte, lim Limits) (Envelope, error) {
	lim = lim.withDefaults()
	var env Envelope
	if len(line) > lim.MaxLineBytes {
		return env, fmt.Errorf("%w: %d bytes > %d", ErrLineTooLong, len(line), lim.MaxLineBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return Envelope{}, &FormatError{Detail: "parsing JSON: " + err.Error()}
	}
	// A second document on the same line is a smuggled record, not trailing
	// whitespace.
	if dec.More() {
		return Envelope{}, &FormatError{Detail: "trailing data after the envelope"}
	}
	if err := env.Validate(lim); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// Validate checks an envelope against the decode bounds: a non-empty
// bounded ID, a non-empty bounded profile, and finite elevations (the
// classifier's tokenizer rejects NaN/±Inf, so they must be stopped at the
// door, not deep in a batch).
func (e Envelope) Validate(lim Limits) error {
	lim = lim.withDefaults()
	if e.ID == "" {
		return &FormatError{Detail: "empty id"}
	}
	if len(e.ID) > maxIDBytes {
		return &FormatError{Detail: fmt.Sprintf("id is %d bytes, max %d", len(e.ID), maxIDBytes)}
	}
	// The ID becomes a journal key and the region a dump field; invalid
	// UTF-8 would be silently rewritten to U+FFFD on re-encode, breaking
	// the byte-identity story, so it is rejected at the door.
	if !utf8.ValidString(e.ID) {
		return &FormatError{Detail: "id is not valid UTF-8"}
	}
	if !utf8.ValidString(e.Region) {
		return &FormatError{Detail: "region is not valid UTF-8"}
	}
	if len(e.Elevations) == 0 {
		return &FormatError{Detail: "empty elevation profile"}
	}
	if len(e.Elevations) > lim.MaxProfileSamples {
		return &FormatError{Detail: fmt.Sprintf("%d elevation samples, max %d",
			len(e.Elevations), lim.MaxProfileSamples)}
	}
	for i, v := range e.Elevations {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &FormatError{Detail: fmt.Sprintf("non-finite elevation at sample %d", i)}
		}
	}
	return nil
}

// EncodeLine renders the envelope as one NDJSON line, trailing newline
// included — the inverse of DecodeLine, used by firehose generators and the
// offline baseline.
func EncodeLine(e Envelope) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("ingest: encoding envelope %q: %w", e.ID, err)
	}
	return append(b, '\n'), nil
}
