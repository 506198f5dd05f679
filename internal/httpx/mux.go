package httpx

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"elevprivacy/internal/obs"
)

// NewServeMux is the one place the repo's HTTP services assemble their root
// routing. The elevation, segment-explore and ingest services all call it
// instead of hand-rolling the same three-layer mux, so /healthz, /metrics,
// pprof, and the Harden wrapper behave identically everywhere:
//
//	/healthz       liveness plus instance identity (service, shard, pid,
//	               process start time — everything cmd/elevobs needs to
//	               label the instance without out-of-band config), outside
//	               Harden so probes bypass load shedding
//	/metrics       Prometheus exposition of the obs registry, outside Harden
//	               so a shedding server can still be observed (that is
//	               exactly when telemetry matters most)
//	/metrics.json  the same registry as an obs.Dump — the federation wire
//	               format cmd/elevobs scrapes (no text-format parser needed)
//	/debug/pprof/  opt-in profiling, panic-recovered but outside the request
//	               timeout — TimeoutHandler would cut off a 30 s CPU profile
//	/              the app handler under Harden (panic recovery, request
//	               timeout, max-in-flight shedding), with trace-context
//	               extraction: a request carrying a traceparent header opens
//	               a parent-linked server span when tracing is enabled
//
// The app handler is additionally wrapped with per-service request metrics
// (outermost, so shed requests are counted too):
//
//	elevpriv_server_requests_total{service=...}
//	elevpriv_server_responses_total{service=...,class="2xx"|...}
//	elevpriv_server_in_flight{service=...}
//	elevpriv_server_request_seconds{service=...}
type MuxConfig struct {
	// Service names the service on /healthz and in metric labels.
	Service string
	// Harden tunes the resilience wrapper around the app handler.
	Harden ServerConfig
	// Metrics is the registry served at /metrics and recorded into; nil
	// uses the process-wide default registry.
	Metrics *obs.Registry
	// DisableMetrics removes the /metrics endpoint and the request metrics.
	DisableMetrics bool
	// Pprof mounts net/http/pprof endpoints under /debug/pprof/.
	Pprof bool
	// ShardIndex and ShardCount identify this instance inside a sharded
	// tier: /healthz reports them so pool probes and smoke scripts can tell
	// shards apart, and elevpriv_server_shard_index{service=...} pins the
	// identity on /metrics. ShardCount 0 means unsharded.
	ShardIndex int
	ShardCount int
}

// NewServeMux assembles the root handler described above. app may be nil
// for a pure admin mux (the CLIs' -metrics-addr endpoint: health, metrics,
// and pprof with no application routes).
func NewServeMux(app http.Handler, cfg MuxConfig) http.Handler {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.DefaultRegistry()
	}
	root := http.NewServeMux()
	if cfg.ShardCount > 0 {
		root.Handle("GET /healthz", shardHealthHandler(cfg.Service, cfg.ShardIndex, cfg.ShardCount))
		if !cfg.DisableMetrics {
			reg.Gauge(`elevpriv_server_shard_index{service="` + cfg.Service + `"}`).Set(float64(cfg.ShardIndex))
		}
	} else {
		root.Handle("GET /healthz", HealthHandler(cfg.Service))
	}
	if !cfg.DisableMetrics {
		root.Handle("GET /metrics", reg.Handler())
		root.Handle("GET /metrics.json", reg.JSONHandler())
	}
	if cfg.Pprof {
		pp := http.NewServeMux()
		pp.HandleFunc("/debug/pprof/", pprof.Index)
		pp.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pp.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pp.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pp.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/debug/pprof/", recoverHandler(pp, cfg.Harden.Logf))
	}
	if app != nil {
		h := Harden(app, cfg.Harden)
		h = traceHandler(h, cfg.Service)
		if !cfg.DisableMetrics {
			h = instrumentHandler(h, reg, cfg.Service)
		}
		root.Handle("/", h)
	}
	return root
}

// shardHealthHandler is HealthHandler plus the instance's shard identity.
func shardHealthHandler(name string, index, count int) http.Handler {
	body := []byte(fmt.Sprintf("{\"status\":\"ok\",\"service\":%q,\"shard\":%d,\"shards\":%d,\"pid\":%d,\"start_unix\":%d}\n",
		name, index, count, os.Getpid(), processStart.Unix()))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})
}

// traceHandler extracts an incoming traceparent header and opens a server
// span parent-linked to the remote client span, so the per-process trace
// rings can be joined into one cross-process trace. Requests without the
// header — or processes without tracing enabled — pass straight through:
// the cost when disabled is one header lookup.
func traceHandler(h http.Handler, service string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc, ok := obs.ExtractTraceHeader(r.Header)
		t := obs.DefaultTracer()
		if !ok || t == nil {
			h.ServeHTTP(w, r)
			return
		}
		ctx, span := t.StartSpan(obs.ContextWithRemoteSpan(r.Context(), sc), "srv/"+service)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			span.SetAttr("status", strconv.Itoa(sw.code))
			span.End()
		}()
		h.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// instrumentHandler wraps h with the per-service server metrics.
func instrumentHandler(h http.Handler, reg *obs.Registry, service string) http.Handler {
	label := `{service="` + service + `"}`
	requests := reg.Counter("elevpriv_server_requests_total" + label)
	inFlight := reg.Gauge("elevpriv_server_in_flight" + label)
	seconds := reg.Histogram("elevpriv_server_request_seconds"+label, nil)
	// One counter per status class, resolved up front so the per-request
	// cost stays a couple of atomic adds.
	var responses [6]*obs.Counter
	for i, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		responses[i+1] = reg.Counter(`elevpriv_server_responses_total{service="` + service + `",class="` + class + `"}`)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			inFlight.Add(-1)
			seconds.ObserveSince(start)
			if class := sw.code / 100; class >= 1 && class <= 5 {
				responses[class].Inc()
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// statusWriter records the response code for the status-class counters.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}
