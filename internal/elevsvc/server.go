// Package elevsvc implements the elevation web service the mining pipeline
// queries, modeled on the Google Maps Elevation API: clients submit an
// encoded polyline path plus a sample count and receive evenly spaced
// elevations along the path.
//
// The server fronts any dem.Source (a raster mosaic or an analytic terrain),
// so the rest of the pipeline talks to elevation data exactly the way the
// paper's pipeline talked to Google's API: over HTTP, in JSON, path by path.
package elevsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/serving"
)

// MaxSamples bounds a single path request, mirroring the real API's limit.
const MaxSamples = 512

// Result is one sampled point, as serialized on the wire.
type Result struct {
	Location  LocationJSON `json:"location"`
	Elevation float64      `json:"elevation"`
}

// LocationJSON is the wire form of a coordinate.
type LocationJSON struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// Response is the top-level wire envelope. Status is "OK" on success; any
// other value carries ErrorMessage, mirroring the Google API envelope.
type Response struct {
	Status       string   `json:"status"`
	ErrorMessage string   `json:"error_message,omitempty"`
	Results      []Result `json:"results,omitempty"`
}

// DefaultMaxInFlight is the load-shedding bound Handler applies unless
// overridden: past it, requests get 429 + Retry-After (which the httpx
// client's retry loop honors).
const DefaultMaxInFlight = 256

// DefaultRequestTimeout bounds one request's handling.
const DefaultRequestTimeout = 15 * time.Second

// Server serves elevation queries from a dem.Source. Successful path
// profiles are cached by (polyline, samples) in a size-bounded LRU with
// singleflight dedup: a profile is a pure function of its query, so when the
// sharded client pins a polyline's requests to one shard, repeats cost a
// memory read instead of a resample loop.
type Server struct {
	source      dem.Source
	logf        func(format string, args ...any)
	maxInFlight int
	reqTimeout  time.Duration
	pprof       bool
	shardIndex  int
	shardCount  int

	cache *serving.Cache
}

// Option configures a Server.
type Option func(*Server)

// WithLogf overrides the server's log function (default: error-level lines
// on the process obs logger).
func WithLogf(logf func(string, ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof(enabled bool) Option {
	return func(s *Server) { s.pprof = enabled }
}

// WithShard tags this instance as shard index of count in a sharded tier;
// /healthz and /metrics report the identity.
func WithShard(index, count int) Option {
	return func(s *Server) { s.shardIndex, s.shardCount = index, count }
}

// obsErrorf is the default logf: error-level lines on the process obs
// logger, resolved per call so SetDefaultLogger takes effect everywhere.
func obsErrorf(format string, args ...any) {
	obs.DefaultLogger().Errorf(format, args...)
}

// profileCacheBytes is the path-profile cache budget.
const profileCacheBytes = 64 << 20

// NewServer creates a Server over the given elevation source.
func NewServer(source dem.Source, opts ...Option) *Server {
	s := &Server{
		source:      source,
		logf:        obsErrorf,
		maxInFlight: DefaultMaxInFlight,
		reqTimeout:  DefaultRequestTimeout,
		cache:       serving.NewCache(profileCacheBytes, serving.WithCacheMetrics("elev_profiles")),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the HTTP routing for the service, hardened for sweep
// traffic: panic recovery (a panicking source quarantines one request, not
// the server), a per-request timeout, and max-in-flight load shedding with
// 429 + Retry-After. The /healthz liveness probe bypasses shedding, and
// /metrics exposes the process obs registry; see httpx.NewServeMux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/elevation/path", s.handlePath)
	mux.HandleFunc("GET /v1/elevation/point", s.handlePoint)

	return httpx.NewServeMux(mux, httpx.MuxConfig{
		Service: "elevsvc",
		Harden: httpx.ServerConfig{
			MaxInFlight:    s.maxInFlight,
			RequestTimeout: s.reqTimeout,
			Logf:           s.logf,
		},
		Pprof:      s.pprof,
		ShardIndex: s.shardIndex,
		ShardCount: s.shardCount,
	})
}

// handlePath samples elevations along an encoded polyline:
// GET /v1/elevation/path?path=<polyline>&samples=N
func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	encoded := q.Get("path")
	if encoded == "" {
		writeStatus(w, http.StatusBadRequest, "INVALID_REQUEST", "missing path parameter")
		return
	}
	samples, err := strconv.Atoi(q.Get("samples"))
	if err != nil || samples < 2 || samples > MaxSamples {
		writeStatus(w, http.StatusBadRequest, "INVALID_REQUEST",
			fmt.Sprintf("samples must be an integer in [2,%d]", MaxSamples))
		return
	}
	path, err := geo.DecodePolyline(encoded)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, "INVALID_REQUEST", "malformed polyline: "+err.Error())
		return
	}
	if len(path) == 0 {
		writeStatus(w, http.StatusBadRequest, "INVALID_REQUEST", "empty path")
		return
	}

	// Only fully successful profiles are cached: a non-OK envelope rides out
	// of the fill as a respError, reaches this client, and leaves the cache
	// untouched so transient failures are retried.
	key := encoded + "\x00" + strconv.Itoa(samples)
	payload, _, err := s.cache.Get(key, func() ([]byte, error) {
		code, resp := s.profile(path, samples)
		if code != http.StatusOK || resp.Status != "OK" {
			return nil, &respError{code: code, resp: resp}
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		// writeJSON's encoder terminates with a newline; match it so cached
		// and uncached responses are byte-identical.
		return append(b, '\n'), nil
	})
	if err != nil {
		var re *respError
		if errors.As(err, &re) {
			writeJSON(w, re.code, re.resp)
			return
		}
		s.logf("elevsvc: encoding profile: %v", err)
		writeStatus(w, http.StatusInternalServerError, "UNKNOWN_ERROR", "internal error")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(payload); err != nil {
		s.logf("elevsvc: writing profile: %v", err)
	}
}

// profile samples elevations along the resampled path, returning the HTTP
// code and envelope to serialize.
func (s *Server) profile(path geo.Path, samples int) (int, Response) {
	pts := path.Resample(samples)
	results := make([]Result, 0, len(pts))
	for _, p := range pts {
		e, err := s.source.ElevationAt(p)
		if err != nil {
			if errors.Is(err, dem.ErrOutOfBounds) {
				return http.StatusOK, Response{Status: "DATA_NOT_AVAILABLE", ErrorMessage: err.Error()}
			}
			s.logf("elevsvc: internal error at %v: %v", p, err)
			return http.StatusInternalServerError, Response{Status: "UNKNOWN_ERROR", ErrorMessage: "internal error"}
		}
		results = append(results, Result{
			Location:  LocationJSON{Lat: p.Lat, Lng: p.Lng},
			Elevation: e,
		})
	}
	return http.StatusOK, Response{Status: "OK", Results: results}
}

// respError carries a non-OK envelope out of a cache fill so it is written
// to the waiting clients but never cached.
type respError struct {
	code int
	resp Response
}

func (e *respError) Error() string { return "elevsvc: " + e.resp.Status }

// handlePoint answers a single-point query:
// GET /v1/elevation/point?lat=..&lng=..
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lat, errLat := strconv.ParseFloat(q.Get("lat"), 64)
	lng, errLng := strconv.ParseFloat(q.Get("lng"), 64)
	if errLat != nil || errLng != nil {
		writeStatus(w, http.StatusBadRequest, "INVALID_REQUEST", "lat and lng must be numbers")
		return
	}
	p := geo.LatLng{Lat: lat, Lng: lng}
	if !p.Valid() {
		writeStatus(w, http.StatusBadRequest, "INVALID_REQUEST", "coordinate out of range")
		return
	}
	e, err := s.source.ElevationAt(p)
	if err != nil {
		if errors.Is(err, dem.ErrOutOfBounds) {
			writeStatus(w, http.StatusOK, "DATA_NOT_AVAILABLE", err.Error())
			return
		}
		s.logf("elevsvc: internal error at %v: %v", p, err)
		writeStatus(w, http.StatusInternalServerError, "UNKNOWN_ERROR", "internal error")
		return
	}
	writeJSON(w, http.StatusOK, Response{
		Status:  "OK",
		Results: []Result{{Location: LocationJSON{Lat: lat, Lng: lng}, Elevation: e}},
	})
}

func writeStatus(w http.ResponseWriter, code int, status, msg string) {
	writeJSON(w, code, Response{Status: status, ErrorMessage: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than note it.
		obsErrorf("elevsvc: encoding response: %v", err)
	}
}
