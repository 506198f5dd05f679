package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"elevprivacy/internal/httpx"
	"elevprivacy/internal/ingest"
	"elevprivacy/internal/obs"
)

// tracedIngestHandler serves the traced run: POST /ingest goes to a
// bench-side upload handler mounted through the same httpx.NewServeMux
// and Harden configuration as ingest.Server's, every other route to the
// real server (the results dump among them).
func tracedIngestHandler(p *ingest.Pipeline, m *matcher, real http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) { tracedUpload(w, r, p, m) })
	app := httpx.NewServeMux(mux, httpx.MuxConfig{
		Service: "ingest",
		Harden: httpx.ServerConfig{
			MaxInFlight:       ingest.DefaultMaxInFlight,
			RequestTimeout:    ingest.DefaultRequestTimeout,
			DynamicRetryAfter: true,
			Logf:              func(string, ...any) {},
		},
	})
	root := http.NewServeMux()
	root.Handle("POST /ingest", app)
	root.Handle("/", real)
	return root
}

// tracedUpload is ingest.Server's upload handler with spans around its
// calls: DecodeLine and Accept per line, then Sync, in the same order.
func tracedUpload(w http.ResponseWriter, r *http.Request, p *ingest.Pipeline, m *matcher) {
	ctx, span := obs.StartSpan(r.Context(), "ingest.handler")
	defer span.End()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), ingest.DefaultMaxLineBytes)
	var resp ingest.UploadResponse
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		_, s := obs.StartSpan(ctx, "ingest.decode")
		env, err := ingest.DecodeLine(line, ingest.Limits{})
		s.End()
		if err != nil {
			writeUpload(w, http.StatusBadRequest, resp, p)
			return
		}
		_, s = obs.StartSpan(ctx, "ingest.accept")
		status, err := p.Accept(env)
		s.End()
		switch status {
		case ingest.Accepted, ingest.Spilled:
			m.acceptedAt(env.ID, time.Now())
			resp.Accepted++
			if status == ingest.Spilled {
				resp.Spilled++
			}
		case ingest.Duplicate:
			resp.Duplicates++
		default:
			code := http.StatusTooManyRequests
			if errors.Is(err, ingest.ErrDraining) {
				code = http.StatusServiceUnavailable
			} else if err != nil {
				code = http.StatusInternalServerError
			}
			writeUpload(w, code, resp, p)
			return
		}
	}
	if sc.Err() != nil {
		writeUpload(w, http.StatusBadRequest, resp, p)
		return
	}
	_, s := obs.StartSpan(ctx, "ingest.sync")
	err := p.Sync()
	s.End()
	if err != nil {
		writeUpload(w, http.StatusInternalServerError, resp, nil)
		return
	}
	writeUpload(w, http.StatusOK, resp, nil)
}

// writeUpload answers an upload. An error answer first makes the accepted
// prefix durable (p non-nil), as the real handler does.
func writeUpload(w http.ResponseWriter, code int, resp ingest.UploadResponse, p *ingest.Pipeline) {
	if p != nil && resp.Accepted > 0 && p.Sync() != nil {
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// liveLayerInputs carries what the live run measured outside the trace.
type liveLayerInputs struct {
	ack, result, spool     *dist
	lo, hi                 time.Time // the measured open-loop window
	rejected               int
	activities, duplicates int64 // accepted and duplicate lines in the open loop
	before, after          journalCounters
}

// liveLayers computes the live workloads' per-layer metrics from the
// spans of the measured open-loop window.
func liveLayers(r *record, set *spanSet, l liveLayerInputs) {
	handlers := set.named("ingest.handler", l.lo, l.hi)
	inner := map[uint64]time.Duration{}
	for _, name := range []string{"ingest.decode", "ingest.accept", "ingest.sync"} {
		for _, s := range set.named(name, l.lo, time.Time{}) {
			inner[s.Parent] += s.Duration()
		}
	}
	front, covered := &dist{}, &dist{}
	for _, h := range handlers {
		covered.add(float64(inner[h.ID]) / float64(h.Duration()))
		// handler ← srv/ingest (the mux's server span) ← httpx.post
		if srv := set.byID[h.Parent]; srv != nil {
			if post := set.byID[srv.Parent]; post != nil && post.Name == "httpx.post" {
				front.addDur(post.Duration() - h.Duration())
			}
		}
	}
	r.set("httpx.front_us_p50", r.quantile("httpx.front_us_p50", front, 0.5, 1e3), "us")
	r.set("httpx.rejected", float64(l.rejected), "count")
	r.set("ingest.handler_us_p50", r.quantile("ingest.handler_us_p50", durations(handlers), 0.5, 1e3), "us")
	r.set("cover.handler_share", covered.q(0.5), "ratio")
	perCall := func(name string) float64 {
		d := durations(set.named(name, l.lo, l.hi))
		return d.mean() / 1e3
	}
	r.set("ingest.decode_us_per_line", perCall("ingest.decode"), "us/line")
	r.set("ingest.accept_us_per_line", perCall("ingest.accept"), "us/line")
	r.set("ingest.sync_us_p50", r.quantile("ingest.sync_us_p50", durations(set.named("ingest.sync", l.lo, l.hi)), 0.5, 1e3), "us")
	spoolP50 := r.quantile("ingest.spool_wait_ms_p50", l.spool, 0.5, 1e6)
	r.set("ingest.spool_wait_ms_p50", spoolP50, "ms")
	r.set("ingest.spool_wait_ms_p99", r.quantile("ingest.spool_wait_ms_p99", l.spool, 0.99, 1e6), "ms")
	r.set("ingest.ack_p99_ms", r.quantile("ingest.ack_p99_ms", l.ack, 0.99, 1e6), "ms")
	r.set("ingest.duplicates", float64(l.duplicates), "count")

	batches := set.named("elevprivacy.classify", l.lo, l.hi)
	rows := &dist{}
	for _, b := range batches {
		rows.add(float64(attrInt(b, "rows")))
	}
	r.set("ingest.batches", float64(len(batches)), "count")
	r.set("ingest.batch_rows_p50", rows.q(0.5), "rows")
	classify := durations(batches)
	r.set("elevprivacy.classify_us_per_row", classify.sum()/rows.sum()/1e3, "us/row")
	r.set("elevprivacy.classify_busy_share", float64(union(intervals(batches)))/float64(l.hi.Sub(l.lo)), "ratio")
	r.set("textrep.featurize_us_per_row", perRow(set.named("textrep.featurize", l.lo, l.hi)), "us/row")
	r.set("ml.predict_us_per_row", perRow(set.named("ml.predict", l.lo, l.hi)), "us/row")

	if l.activities > 0 {
		n := float64(l.activities)
		r.set("durable.appends_per_activity", float64(l.after.appends-l.before.appends)/n, "ratio")
		r.set("durable.fsyncs_per_activity", float64(l.after.fsyncs-l.before.fsyncs)/n, "ratio")
	}
	if f := l.after.fsyncs - l.before.fsyncs; f > 0 {
		r.set("durable.fsync_us_mean", (l.after.fsyncSeconds-l.before.fsyncSeconds)/float64(f)*1e6, "us")
	}
	// Ack, spool wait and one batch's classify time should cover the
	// median result latency.
	ackP50 := l.ack.q(0.5) / 1e6
	r.set("cover.result_share", (ackP50+spoolP50+classify.q(0.5)/1e6)/(l.result.q(0.5)/1e6), "ratio")
	setupLayers(r, set, l.lo)
}

// perRow is the mean time per row, in microseconds, of spans carrying a
// rows attribute.
func perRow(spans []obs.SpanRecord) float64 {
	rows := 0
	for _, s := range spans {
		rows += attrInt(s, "rows")
	}
	if rows == 0 {
		return 0
	}
	return durations(spans).sum() / float64(rows) / 1e3
}

// setupLayers reports the layers set-up calls: building the dataset, the
// text pipeline and the dense model fit, from spans before end.
func setupLayers(r *record, set *spanSet, end time.Time) {
	before := func(name string) *dist { return durations(set.named(name, time.Time{}, end)) }
	if d := before("dataset.build"); d.n() > 0 {
		r.set("dataset.build_ms", d.q(0.5)/1e6, "ms")
	}
	if d := before("textrep.build"); d.n() > 0 {
		r.set("textrep.build_ms", d.q(0.5)/1e6, "ms")
	}
	if d := before("ml.fit_dense"); d.n() > 0 {
		r.set("ml.fit_dense_s", d.q(0.5)/1e9, "s")
	}
}
