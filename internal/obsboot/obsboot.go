// Package obsboot wires the telemetry subsystem into a CLI: the four flags
// every long-running binary grows (-metrics-addr, -trace-out, -log-level,
// -log-json), the admin HTTP endpoint behind -metrics-addr, and the Chrome
// trace export behind -trace-out. The obs package itself stays stdlib-only;
// this package is where obs meets httpx (admin mux) and durable (atomic
// trace file), so the CLIs share one implementation instead of four copies.
package obsboot

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/obs"
)

// Flags holds the telemetry flag values; populate via Register, then call
// Start after flag.Parse.
type Flags struct {
	// MetricsAddr, when non-empty, serves /metrics, /healthz, and pprof on
	// this address for the life of the process.
	MetricsAddr string
	// TraceOut, when non-empty, enables run-scoped tracing and writes the
	// collected spans to this path (Chrome trace_event JSON) on Close.
	TraceOut string
	// LogLevel is the minimum level the process logger emits.
	LogLevel string
	// LogJSON switches the logger from key=value lines to JSON records.
	LogJSON bool
}

// Register declares the telemetry flags on fs (the default flag set when
// nil) and returns the struct their values land in.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON of the run to this path (empty = off)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit logs as JSON records instead of key=value lines")
	return f
}

// PoolFlags holds the endpoint-pool tuning knobs of a CLI that talks to its
// services through httpx pools, over one address or a sharded tier;
// populate via RegisterPool, then hand Options(service) to httpx.NewPool.
// Shared here so every sweep binary exposes the same four flags instead of
// inventing its own spellings.
type PoolFlags struct {
	// HealthInterval is the background /healthz probe period; 0 disables
	// active probing (passive down-marking still applies). A one-address
	// pool never probes.
	HealthInterval time.Duration
	// DownTTL is how long a passive down mark keeps an endpoint out of
	// selection before it gets an optimistic retry.
	DownTTL time.Duration
	// BreakerThreshold is the consecutive failures that open an endpoint's
	// circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before half-open.
	BreakerCooldown time.Duration
}

// RegisterPool declares the pool flags on fs (the default flag set when
// nil) and returns the struct their values land in.
func RegisterPool(fs *flag.FlagSet) *PoolFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &PoolFlags{}
	fs.DurationVar(&f.HealthInterval, "pool-health-interval", httpx.DefaultHealthInterval,
		"endpoint pool /healthz probe period (0 = passive marking only)")
	fs.DurationVar(&f.DownTTL, "pool-down-ttl", 2*time.Second,
		"how long a down-marked endpoint stays out of pool selection before an optimistic retry")
	fs.IntVar(&f.BreakerThreshold, "pool-breaker-threshold", 8,
		"consecutive failures that open an endpoint's circuit breaker")
	fs.DurationVar(&f.BreakerCooldown, "pool-breaker-cooldown", 3*time.Second,
		"open period before an endpoint breaker admits a half-open probe")
	return f
}

// Options converts the flag values into pool options, instrumented under
// the given service label.
func (f *PoolFlags) Options(service string) []httpx.PoolOption {
	return []httpx.PoolOption{
		httpx.WithPoolHealthInterval(f.HealthInterval),
		httpx.WithPoolDownTTL(f.DownTTL),
		httpx.WithPoolBreaker(f.BreakerThreshold, f.BreakerCooldown),
		httpx.WithPoolMetrics(service),
	}
}

// JournalFlags holds the work-journal tuning knobs a durable CLI exposes;
// populate via RegisterJournal, then pass SyncEvery to OpenJournal.
type JournalFlags struct {
	// SyncEvery is the journal's fsync batch: records appended per fsync
	// (1 = fsync every record).
	SyncEvery int
}

// RegisterJournal declares the work-journal flags of the checkpointing
// CLIs (elevmine, experiments) on fs (the default flag set when nil).
// -journal-sync-every defaults to durable.DefaultSyncEvery: a crash redoes
// at most that many units. The ingest service has no such flag; its
// journals fsync once per acknowledged request instead (DESIGN.md §5k).
func RegisterJournal(fs *flag.FlagSet) *JournalFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &JournalFlags{}
	fs.IntVar(&f.SyncEvery, "journal-sync-every", durable.DefaultSyncEvery,
		"journal fsync batch: records appended per fsync (1 = every record)")
	return f
}

// Telemetry is the running telemetry plumbing behind the flags. Always call
// Close — it is what flushes the trace file.
type Telemetry struct {
	traceOut string
	admin    *AdminServer
}

// AdminServer is a running admin HTTP endpoint: /healthz, /metrics, and
// pprof from httpx.NewServeMux, plus an optional app handler (e.g. the
// scenario orchestrator's API) mounted under it.
type AdminServer struct {
	srv *http.Server
}

// ServeAdmin starts an admin HTTP server on addr. service names the health
// probe; app, when non-nil, handles every path the mux's built-ins don't.
// An unusable address surfaces as an error now instead of silently serving
// nothing for the whole run.
func ServeAdmin(addr, service string, app http.Handler) (*AdminServer, error) {
	handler := httpx.NewServeMux(app, httpx.MuxConfig{Service: service, Pprof: true})
	a := &AdminServer{
		srv: &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second},
	}
	lnErr := make(chan error, 1)
	go func() {
		err := a.srv.ListenAndServe()
		select {
		case lnErr <- err:
		default:
		}
	}()
	select {
	case err := <-lnErr:
		if err != nil && err != http.ErrServerClosed {
			return nil, fmt.Errorf("obsboot: admin server: %w", err)
		}
	case <-time.After(100 * time.Millisecond):
	}
	obs.DefaultLogger().Info("admin endpoint up", "addr", addr, "service", service)
	return a, nil
}

// Close shuts the server down gracefully. Safe on nil.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return a.srv.Shutdown(ctx)
}

// Start applies the flag values: installs the process logger, enables
// tracing when a trace path is set, and (when -metrics-addr is set) starts
// the admin HTTP server. service names the admin endpoint's health probe.
func (f *Flags) Start(service string) (*Telemetry, error) {
	level, err := obs.ParseLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	obs.SetDefaultLogger(obs.NewLogger(os.Stderr, level, f.LogJSON))

	t := &Telemetry{traceOut: f.TraceOut}
	if f.TraceOut != "" {
		// The service name rides along in the trace file (processName), so
		// the fleet merger can label this process's lane without guessing
		// from file names.
		obs.EnableTracing(obs.DefaultTraceCapacity).SetName(service)
	}
	if f.MetricsAddr != "" {
		admin, err := ServeAdmin(f.MetricsAddr, service, nil)
		if err != nil {
			return nil, err
		}
		t.admin = admin
	}
	return t, nil
}

// Close shuts the admin server down and writes the trace file (atomically;
// a crash mid-write never leaves a torn trace). Safe on a nil receiver.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	_ = t.admin.Close()
	if t.traceOut != "" {
		tracer := obs.DefaultTracer()
		if tracer != nil {
			err := durable.WriteFileAtomic(t.traceOut, 0o644, func(w io.Writer) error {
				return tracer.WriteChromeTrace(w)
			})
			if err != nil {
				return fmt.Errorf("obsboot: writing trace: %w", err)
			}
			// The ring bounds memory by overwriting the oldest spans; that
			// loss is silent at record time, so surface it where the user
			// will look — next to the file they are about to open.
			if dropped := tracer.Dropped(); dropped > 0 {
				obs.DefaultLogger().Warn("trace ring overflowed; oldest spans were overwritten",
					"path", t.traceOut, "dropped", fmt.Sprint(dropped),
					"capacity", fmt.Sprint(tracer.Len()))
			}
			obs.DefaultLogger().Info("trace written", "path", t.traceOut, "spans", fmt.Sprint(tracer.Len()))
		}
	}
	return nil
}
