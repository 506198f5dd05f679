package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/obs"
)

// The traced run records bench-owned spans around every call into a layer,
// named <layer>.<call>; the program's own spans (srv/<service> from the
// HTTP mux, mine/<label>/... from the miner) join them in the same ring.

// layerOf maps a span name to the module it times.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "srv/"):
		return "httpx"
	case strings.HasPrefix(name, "mine/"):
		return "segments"
	}
	if i := strings.IndexAny(name, "./"); i > 0 {
		return name[:i]
	}
	return name
}

// layerRow is one line of the per-layer table: how many spans the layer
// recorded, their total time (busy), that time minus what child spans
// cover (self), and the time work spent queued for the layer (wait).
type layerRow struct {
	Layer  string  `json:"layer"`
	Count  int     `json:"count"`
	BusyMs float64 `json:"busy_ms"`
	SelfMs float64 `json:"self_ms"`
	WaitMs float64 `json:"wait_ms"`
}

// waits accumulates queueing time per layer, which spans cannot show: the
// wait starts before the code that ends it runs.
type waits struct {
	mu sync.Mutex
	by map[string]time.Duration
}

func (w *waits) add(layer string, d time.Duration) {
	w.mu.Lock()
	if w.by == nil {
		w.by = map[string]time.Duration{}
	}
	w.by[layer] += d
	w.mu.Unlock()
}

// layerTable aggregates spans by layer.
func layerTable(spans []obs.SpanRecord, w *waits) []layerRow {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	rows := map[string]*layerRow{}
	get := func(layer string) *layerRow {
		if rows[layer] == nil {
			rows[layer] = &layerRow{Layer: layer}
		}
		return rows[layer]
	}
	for _, s := range spans {
		row := get(layerOf(s.Name))
		row.Count++
		row.BusyMs += ms(s.Duration())
		var inner []interval
		for _, c := range children[s.ID] {
			lo, hi := c.lo, c.hi
			if lo.Before(s.Start) {
				lo = s.Start
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				inner = append(inner, interval{lo, hi})
			}
		}
		row.SelfMs += ms(s.Duration() - union(inner))
	}
	w.mu.Lock()
	for layer, d := range w.by {
		get(layer).WaitMs += ms(d)
	}
	w.mu.Unlock()
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "   %-12s %9s %12s %12s %12s\n", "layer", "spans", "busy ms", "self ms", "wait ms")
	for _, r := range rows {
		fmt.Fprintf(w, "   %-12s %9d %12.1f %12.1f %12.1f\n", r.Layer, r.Count, r.BusyMs, r.SelfMs, r.WaitMs)
	}
}

// spanSet indexes a trace snapshot for the per-layer metrics.
type spanSet struct {
	all  []obs.SpanRecord
	byID map[uint64]*obs.SpanRecord
}

func newSpanSet(spans []obs.SpanRecord) *spanSet {
	s := &spanSet{all: spans, byID: make(map[uint64]*obs.SpanRecord, len(spans))}
	for i := range spans {
		s.byID[spans[i].ID] = &spans[i]
	}
	return s
}

// named returns the spans called name that started inside [lo, hi]; a zero
// hi means no upper limit.
func (s *spanSet) named(name string, lo, hi time.Time) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, sp := range s.all {
		if sp.Name == name && !sp.Start.Before(lo) && (hi.IsZero() || !sp.Start.After(hi)) {
			out = append(out, sp)
		}
	}
	return out
}

func durations(spans []obs.SpanRecord) *dist {
	d := &dist{}
	for _, s := range spans {
		d.addDur(s.Duration())
	}
	return d
}

func intervals(spans []obs.SpanRecord) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = interval{s.Start, s.End}
	}
	return out
}

// attrInt reads an integer span attribute, 0 when absent.
func attrInt(s obs.SpanRecord, key string) int {
	for _, kv := range s.Attrs {
		if kv[0] == key {
			var n int
			fmt.Sscan(kv[1], &n)
			return n
		}
	}
	return 0
}

// startTracing installs a process tracer whose ring holds capacity spans.
func startTracing(capacity int) *obs.Tracer {
	t := obs.EnableTracing(capacity)
	t.SetName("elevbench")
	return t
}

// finishTracing records the trace bookkeeping metrics, fails the run when
// the ring dropped spans, and writes the Chrome trace when asked.
func finishTracing(r *record, t *obs.Tracer, w *waits, out string) ([]obs.SpanRecord, error) {
	obs.DisableTracing()
	spans := t.Snapshot()
	r.set("trace.spans", float64(len(spans)), "count")
	r.set("trace.dropped_spans", float64(t.Dropped()), "count")
	r.check("trace-complete", t.Dropped() == 0, "%d spans kept, %d dropped", len(spans), t.Dropped())
	r.Layers = layerTable(spans, w)
	if out == "" {
		return spans, nil
	}
	err := durable.WriteFileAtomic(out, 0o644, t.WriteChromeTrace)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "elevbench: wrote %s\n", out)
	return spans, nil
}
