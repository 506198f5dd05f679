package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"elevprivacy/internal/httpx"
	"elevprivacy/internal/obs"
)

// Server shedding defaults: the front door admits fewer concurrent uploads
// than elevsvc admits queries because each upload can carry many
// activities, and the request deadline must cover a full spool-and-sync
// round trip for a large chunk.
const (
	DefaultMaxInFlight    = 64
	DefaultRequestTimeout = 30 * time.Second
)

// Server is the HTTP front door over a Pipeline.
type Server struct {
	p           *Pipeline
	logf        func(string, ...any)
	maxInFlight int
	reqTimeout  time.Duration
	// scanBufs keeps idle 64 KiB scanner buffers for handleUpload, so a
	// request's heap scales with its body rather than with the buffer.
	// One per CPU covers the uploads that run at once; more allocate
	// their own.
	scanBufs chan []byte
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLogf overrides the server's log function.
func WithLogf(logf func(string, ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithMaxInFlight overrides the load-shedding bound; 0 disables shedding.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) { s.maxInFlight = n }
}

// WithRequestTimeout overrides the per-request deadline; 0 disables it.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.reqTimeout = d }
}

// NewServer wraps p in the firehose front door.
func NewServer(p *Pipeline, opts ...ServerOption) *Server {
	s := &Server{
		p:           p,
		logf:        func(format string, args ...any) { obs.DefaultLogger().Errorf(format, args...) },
		maxInFlight: DefaultMaxInFlight,
		reqTimeout:  DefaultRequestTimeout,
		scanBufs:    make(chan []byte, runtime.GOMAXPROCS(0)),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// UploadResponse acknowledges one firehose request. Every counted activity
// is durable by the time the response is written.
type UploadResponse struct {
	// Accepted counts activities newly journaled by this request
	// (including ones that spilled to the backlog — spilled is a subset).
	Accepted int `json:"accepted"`
	// Duplicates counts re-uploads of already-accepted IDs.
	Duplicates int `json:"duplicates"`
	// Spilled counts accepted activities parked for replay.
	Spilled int `json:"spilled"`
}

// ResultLine is one row of the NDJSON results dump.
type ResultLine struct {
	ID        string `json:"id"`
	Predicted string `json:"predicted"`
}

// Handler returns the service's routing, hardened with dynamic-Retry-After
// shedding: the in-flight bound is the outer backpressure layer, and the
// pipeline's backlog bound is the inner one — both surface to clients as
// 429 + a pressure-scaled hint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleUpload)
	mux.HandleFunc("GET /ingest/results", s.handleResults)
	mux.HandleFunc("GET /ingest/stats", s.handleStats)

	return httpx.NewServeMux(mux, httpx.MuxConfig{
		Service: "ingest",
		Harden: httpx.ServerConfig{
			MaxInFlight:       s.maxInFlight,
			RequestTimeout:    s.reqTimeout,
			DynamicRetryAfter: true,
			Logf:              s.logf,
		},
	})
}

// handleUpload streams an NDJSON body line by line into the pipeline.
// Any line the pipeline refused to journal fails the whole request — but
// everything accepted before the failure is synced first, so the client's
// retry of the same body lands as duplicates, not double-classifications.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	lim := s.p.cfg.Limits
	sc := bufio.NewScanner(r.Body)
	// The scanner's buffer is the memory bound for hostile lines: a line
	// past MaxLineBytes surfaces as ErrTooLong, never as an allocation.
	// Decoded envelopes copy out of it, so it is free again on return.
	var buf []byte
	select {
	case buf = <-s.scanBufs:
	default:
		buf = make([]byte, 64*1024)
	}
	defer func() {
		select {
		case s.scanBufs <- buf:
		default:
		}
	}()
	sc.Buffer(buf, lim.MaxLineBytes)

	var resp UploadResponse
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		env, err := DecodeLine(line, lim)
		if err != nil {
			s.failUpload(w, http.StatusBadRequest, resp,
				fmt.Sprintf("line %d: %v", lineNo, err))
			return
		}
		status, err := s.p.Accept(env)
		switch status {
		case Accepted:
			resp.Accepted++
		case Spilled:
			resp.Accepted++
			resp.Spilled++
		case Duplicate:
			resp.Duplicates++
		case Shed:
			if err != nil && !errors.Is(err, ErrDraining) {
				var fe *FormatError
				if errors.As(err, &fe) {
					s.failUpload(w, http.StatusBadRequest, resp,
						fmt.Sprintf("line %d: %v", lineNo, err))
					return
				}
				s.logf("ingest: accepting line %d: %v", lineNo, err)
				s.failUpload(w, http.StatusInternalServerError, resp, "internal error")
				return
			}
			code := http.StatusTooManyRequests
			msg := "backlog at capacity, retry later"
			if errors.Is(err, ErrDraining) {
				code = http.StatusServiceUnavailable
				msg = "server is draining, retry against the restarted instance"
			}
			w.Header().Set("Retry-After",
				strconv.Itoa(int(s.p.RetryAfterHint()/time.Second)))
			s.failUpload(w, code, resp, msg)
			return
		}
	}
	if err := sc.Err(); err != nil {
		code := http.StatusBadRequest
		msg := "line " + strconv.Itoa(lineNo+1) + ": " + err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("line %d exceeds the %d-byte bound", lineNo+1, lim.MaxLineBytes)
		}
		s.failUpload(w, code, resp, msg)
		return
	}
	if err := s.p.Sync(); err != nil {
		s.logf("ingest: syncing intake journal: %v", err)
		s.failUpload(w, http.StatusInternalServerError, resp, "internal error")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// failUpload makes the partial progress durable, then reports the error
// alongside what was accepted so far. The durability-before-response order
// is the idempotency contract: an activity counted in any response — even
// an error response — survives a crash immediately after.
func (s *Server) failUpload(w http.ResponseWriter, code int, resp UploadResponse, msg string) {
	if resp.Accepted > 0 {
		if err := s.p.Sync(); err != nil {
			s.logf("ingest: syncing partial upload: %v", err)
			code = http.StatusInternalServerError
			msg = "internal error"
		}
	}
	writeJSON(w, code, struct {
		UploadResponse
		Error string `json:"error"`
	}{resp, msg})
}

// handleResults streams every recorded prediction as NDJSON, sorted by
// activity ID — the live counterpart of the offline baseline dump, and
// byte-comparable against it.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	for _, id := range s.p.ResultIDs() {
		pred, ok := s.p.Result(id)
		if !ok {
			continue
		}
		line, err := json.Marshal(ResultLine{ID: id, Predicted: pred})
		if err != nil {
			s.logf("ingest: encoding result %s: %v", id, err)
			return
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		s.logf("ingest: streaming results: %v", err)
	}
}

// handleStats reports the pipeline's accounting snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.p.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.DefaultLogger().Errorf("ingest: encoding response: %v", err)
	}
}
