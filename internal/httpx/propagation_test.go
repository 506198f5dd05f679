package httpx

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elevprivacy/internal/obs"
)

// TestClientRetriesPropagateOneClientSpan pins the propagation contract end
// to end: a request that retries twice before succeeding produces exactly
// three server spans — one per attempt — every one parent-linked to the
// same client span and carrying the same (bit-stable) trace ID.
func TestClientRetriesPropagateOneClientSpan(t *testing.T) {
	tracer := obs.EnableTracing(256)
	defer obs.DisableTracing()

	var calls atomic.Int32
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok")
	})
	srv := httptest.NewServer(NewServeMux(app, MuxConfig{Service: "segsvc", DisableMetrics: true}))
	defer srv.Close()

	c := NewClient(srv.Client(),
		WithPoolPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}),
		WithPoolSleep(func(ctx context.Context, d time.Duration) error { return ctx.Err() }),
	)

	ctx, clientSpan := tracer.StartSpan(context.Background(), "sweep/segments")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	clientSpan.End()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final attempt returned %d, want 200", resp.StatusCode)
	}

	want := clientSpan.SpanContext()
	var clientSpans, serverSpans int
	for _, rec := range tracer.Snapshot() {
		switch {
		case rec.Name == "sweep/segments":
			clientSpans++
		case rec.Name == "srv/segsvc":
			serverSpans++
			if rec.Parent != want.Span {
				t.Errorf("server span parent = %d, want client span %d", rec.Parent, want.Span)
			}
			if rec.Trace != want.Trace {
				t.Errorf("server span trace = %016x, want %016x (trace ID must be bit-stable)", rec.Trace, want.Trace)
			}
		}
	}
	if clientSpans != 1 {
		t.Errorf("client spans = %d, want exactly 1", clientSpans)
	}
	if serverSpans != 3 {
		t.Errorf("server spans = %d, want 3 (one per attempt)", serverSpans)
	}
}

// TestClientWithoutSpanSendsNoTraceHeader: an uninstrumented caller (or a
// process with tracing off) must not emit a traceparent header at all.
func TestClientWithoutSpanSendsNoTraceHeader(t *testing.T) {
	var sawHeader atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(obs.TraceHeader) != "" {
			sawHeader.Store(true)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), WithPoolPolicy(Policy{MaxAttempts: 1}))
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if sawHeader.Load() {
		t.Fatal("spanless request carried a traceparent header")
	}
}

// TestPoolPropagatesTraceContext: pooled requests (the sharded-tier path)
// carry the caller's span identity too, and the server span opened behind
// the pool links back to it.
func TestPoolPropagatesTraceContext(t *testing.T) {
	tracer := obs.EnableTracing(256)
	defer obs.DisableTracing()

	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") {
			io.WriteString(w, `{"status":"ok"}`)
			return
		}
		io.WriteString(w, "ok")
	})
	srv := httptest.NewServer(NewServeMux(app, MuxConfig{Service: "elevation", DisableMetrics: true}))
	defer srv.Close()

	pool, err := NewPool([]string{srv.URL}, WithPoolHealthInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, clientSpan := tracer.StartSpan(context.Background(), "sweep/elevation")
	resp, err := pool.Get(ctx, 42, "/lookup")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	clientSpan.End()

	want := clientSpan.SpanContext()
	var linked int
	for _, rec := range tracer.Snapshot() {
		if rec.Name == "srv/elevation" && rec.Parent == want.Span && rec.Trace == want.Trace {
			linked++
		}
	}
	if linked != 1 {
		t.Fatalf("parent-linked server spans behind the pool = %d, want 1", linked)
	}
}
