package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"elevprivacy"
	"elevprivacy/internal/activity"
	"elevprivacy/internal/ingest"
	"elevprivacy/internal/obs"
)

// liveShape is one live workload's traffic mix.
type liveShape struct {
	lines     int     // activities per POST
	postsPerS float64 // open-loop POST rate
	// retryEvery makes every retryEvery-th POST re-upload an activity due
	// at least retryAge earlier — a client retry the pipeline must answer
	// Duplicate. 0 disables retries.
	retryEvery int
}

var (
	liveChunked = liveShape{lines: 20, postsPerS: 200}
	liveSingle  = liveShape{lines: 1, postsPerS: 800, retryEvery: 4}
)

const (
	// liveConns is the client's connection count: nproc on the reference
	// two-core box, so load never needs more than one process.
	liveConns = 2
	// retryAge is how long before a re-upload its activity was due.
	retryAge = time.Second
	// maxCapacityRate bounds the activities the closed loop may send per
	// second, several times what the pipeline reaches. It sizes the
	// per-activity buffers; a phase that reaches it ends early, its rate
	// still measured.
	maxCapacityRate = 20000
	// liveTraceSpans is a traced run's span ring. The closed loop of a
	// traced run stops where the ring would overflow.
	liveTraceSpans = 1 << 19
	// maxLateness is the generator-lateness p99 that makes an untraced run
	// invalid. The generator shares both CPUs with the system under test,
	// and the host stalls them now and then: untraced runs reached a p99
	// of 1.2 ms, traced runs 3.4 ms, with single stalls up to 25 ms. Past
	// 5 ms the offered load is no longer the planned one; below it the
	// delay is charged to the requests through their due times.
	maxLateness = 5 * time.Millisecond
)

// livePlan sizes a live run from the run configuration.
type livePlan struct {
	warm, open, capacity time.Duration
	pool                 int // distinct activities the stream cycles through
}

func planLive(cfg runConfig) livePlan {
	if cfg.quick {
		return livePlan{warm: 200 * time.Millisecond, open: time.Second, capacity: 500 * time.Millisecond, pool: 512}
	}
	total := time.Duration(cfg.seconds) * time.Second
	return livePlan{warm: time.Second, open: total * 3 / 5, capacity: total * 2 / 5, pool: 4096}
}

// liveModel is the live dataset: the attack model trains on it in set-up.
func liveModel(seed int64) elevprivacy.DatasetConfig {
	return elevprivacy.DatasetConfig{Scale: 0.05, ProfileSamples: 80, MinPerClass: 10, Seed: seed}
}

// poolItem is one generated activity, its NDJSON line encoded in set-up.
type poolItem struct {
	name, region string
	elevs        []float64
	hash         uint64
	tail         []byte // the encoded line after the id value
}

// stream is the activity stream. Activity k is pool item k mod P under a
// fresh ID per cycle ("<name>.<cycle>"), so every activity is new to the
// pipeline while the JSON encoding happens once, in set-up.
type stream struct{ items []poolItem }

func newStream(seed int64, n int) (*stream, error) {
	gen, err := activity.NewGenerator(nil, activity.DefaultAthleteConfig(), seed)
	if err != nil {
		return nil, err
	}
	s := &stream{items: make([]poolItem, n)}
	for i := range s.items {
		act, err := gen.Next()
		if err != nil {
			return nil, err
		}
		line, err := ingest.EncodeLine(ingest.Envelope{ID: act.Name, Region: act.Region, Elevations: act.Elevations})
		if err != nil {
			return nil, err
		}
		prefix := `{"id":"` + act.Name + `"`
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return nil, fmt.Errorf("unexpected encoding of activity %s", act.Name)
		}
		s.items[i] = poolItem{name: act.Name, region: act.Region, elevs: act.Elevations,
			hash: profileHash(act.Elevations), tail: line[len(prefix):]}
	}
	return s, nil
}

func (s *stream) item(k int) *poolItem { return &s.items[k%len(s.items)] }

func (s *stream) id(k int) string {
	if c := k / len(s.items); c > 0 {
		return s.item(k).name + "." + strconv.Itoa(c)
	}
	return s.item(k).name
}

// appendLine appends activity k's NDJSON line, byte-identical to
// ingest.EncodeLine of its envelope.
func (s *stream) appendLine(buf []byte, k int) []byte {
	buf = append(buf, `{"id":"`...)
	buf = append(buf, s.id(k)...)
	buf = append(buf, '"')
	return append(buf, s.item(k).tail...)
}

// profileHash identifies a profile by its exact float bits (FNV-1a).
func profileHash(elevs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range elevs {
		b := math.Float64bits(e)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

// post is one planned upload: n new activities from first on, or, when
// retry is set, a re-upload of activity first.
type post struct {
	first, n int
	retry    bool
	due      time.Duration // offset from the loop's start (open loop only)
}

// mix hashes (seed, i) into a uniform 64-bit value (splitmix64).
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// planOpen schedules the open loop's POSTs over d at the shape's rate. A
// retry slot re-uploads a random activity due at least retryAge earlier;
// before any is that old, the slot carries new activities instead.
func planOpen(shape liveShape, d time.Duration, seed int64) (posts []post, activities int) {
	interval := time.Duration(float64(time.Second) / shape.postsPerS)
	type mark struct {
		due  time.Duration
		upTo int // activities sent up to and including this POST
	}
	var sent []mark
	old := 0 // sent[:old] are due at least retryAge before the current POST
	for j := 0; ; j++ {
		due := time.Duration(j) * interval
		if due >= d {
			return posts, activities
		}
		for old < len(sent) && sent[old].due <= due-retryAge {
			old++
		}
		if shape.retryEvery > 0 && j%shape.retryEvery == shape.retryEvery-1 && old > 0 {
			eligible := sent[old-1].upTo
			posts = append(posts, post{first: int(mix(seed, j) % uint64(eligible)), n: 1, retry: true, due: due})
			continue
		}
		posts = append(posts, post{first: activities, n: shape.lines, due: due})
		activities += shape.lines
		sent = append(sent, mark{due: due, upTo: activities})
	}
}

// capacityPost is the i-th POST of the closed-loop phase, which keeps the
// open loop's mix: new activities continue from base, retries re-upload
// one of the first eligible activities.
func capacityPost(shape liveShape, i, base, eligible int, seed int64) post {
	if shape.retryEvery > 0 && i%shape.retryEvery == shape.retryEvery-1 && eligible > 0 {
		return post{first: int(mix(seed+1, i) % uint64(eligible)), n: 1, retry: true}
	}
	retries := 0
	if shape.retryEvery > 0 && eligible > 0 {
		retries = i / shape.retryEvery
	}
	return post{first: base + (i-retries)*shape.lines, n: shape.lines}
}

// matcher pairs every classified row with the activity it came from. The
// pipeline hands its classifier bare profiles, so rows are matched by a
// hash of the profile; activities sharing a profile are matched in the
// order they were sent.
type matcher struct {
	epoch time.Time

	mu         sync.Mutex
	queue      map[uint64][]int
	due        []time.Duration // per activity, since epoch
	accepted   []time.Duration // when Accept returned (traced runs)
	classStart []time.Duration
	classEnd   []time.Duration
	ids        map[string]int // activity ID → index (traced runs)
	registered int
	classified int
	unmatched  int
	target     int
	reached    chan struct{}
}

func newMatcher(activities int, traced bool) *matcher {
	m := &matcher{
		epoch:      time.Now(),
		queue:      map[uint64][]int{},
		due:        make([]time.Duration, activities),
		classStart: make([]time.Duration, activities),
		classEnd:   make([]time.Duration, activities),
	}
	if traced {
		m.accepted = make([]time.Duration, activities)
		m.ids = map[string]int{}
	}
	return m
}

// register records that activity k, with the given profile hash and ID, is
// being sent with the given due time.
func (m *matcher) register(k int, hash uint64, id string, due time.Time) {
	m.mu.Lock()
	m.queue[hash] = append(m.queue[hash], k)
	m.due[k] = due.Sub(m.epoch)
	if m.ids != nil {
		m.ids[id] = k
	}
	m.registered++
	m.mu.Unlock()
}

// acceptedAt records when Accept returned for the activity with this ID.
func (m *matcher) acceptedAt(id string, at time.Time) {
	m.mu.Lock()
	if k, ok := m.ids[id]; ok {
		m.accepted[k] = at.Sub(m.epoch)
	}
	m.mu.Unlock()
}

// classifiedBatch records one ClassifyBatch call over profiles.
func (m *matcher) classifiedBatch(profiles [][]float64, start, end time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range profiles {
		h := profileHash(p)
		q := m.queue[h]
		if len(q) == 0 {
			m.unmatched++
			continue
		}
		k := q[0]
		if len(q) == 1 {
			delete(m.queue, h)
		} else {
			m.queue[h] = q[1:]
		}
		m.classStart[k] = start.Sub(m.epoch)
		m.classEnd[k] = end.Sub(m.epoch)
		m.classified++
	}
	if m.reached != nil && m.classified >= m.target {
		close(m.reached)
		m.reached = nil
	}
}

// waitClassified blocks until every registered activity is classified.
func (m *matcher) waitClassified(ctx context.Context, timeout time.Duration) error {
	m.mu.Lock()
	if m.classified >= m.registered {
		m.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	m.target, m.reached = m.registered, ch
	m.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
	case <-ctx.Done():
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reached = nil
	return fmt.Errorf("%d of %d activities classified after %s", m.classified, m.registered, timeout)
}

// attackClassifier is the untraced run's classifier: the trained attack's
// PredictLocations, with each call reported to the matcher.
type attackClassifier struct {
	attack *elevprivacy.TextAttack
	m      *matcher
}

func (c *attackClassifier) ClassifyBatch(profiles [][]float64) ([]string, error) {
	start := time.Now()
	preds, err := c.attack.PredictLocations(profiles)
	if err == nil {
		c.m.classifiedBatch(profiles, start, time.Now())
	}
	return preds, err
}

// tracedClassifier is the traced run's classifier: the same model rebuilt
// from its parts, with spans around featurize and predict.
type tracedClassifier struct {
	model *textModel
	m     *matcher
}

func (c *tracedClassifier) ClassifyBatch(profiles [][]float64) ([]string, error) {
	start := time.Now()
	ctx, span := obs.StartSpan(context.Background(), "elevprivacy.classify")
	span.SetAttr("rows", strconv.Itoa(len(profiles)))
	preds, err := c.model.predict(ctx, profiles)
	span.End()
	if err == nil {
		c.m.classifiedBatch(profiles, start, time.Now())
	}
	return preds, err
}

// liveEnv is one set-up: the trained attack, the stream, the pipeline and
// its HTTP server.
type liveEnv struct {
	attack  *elevprivacy.TextAttack
	stream  *stream
	m       *matcher
	p       *ingest.Pipeline
	srv     *http.Server
	url     string
	clients []*http.Client
}

func setupLive(ctx context.Context, cfg runConfig, plan livePlan, maxActivities int, dir string) (*liveEnv, error) {
	_, span := obs.StartSpan(ctx, "dataset.build")
	d, err := elevprivacy.NewUserSpecificDataset(liveModel(cfg.seed))
	span.End()
	if err != nil {
		return nil, err
	}
	attack, err := elevprivacy.TrainTextAttack(d, attackConfig())
	if err != nil {
		return nil, err
	}
	s, err := newStream(cfg.seed, plan.pool)
	if err != nil {
		return nil, err
	}
	e := &liveEnv{attack: attack, stream: s, m: newMatcher(maxActivities, cfg.trace)}
	var cls ingest.Classifier = &attackClassifier{attack: attack, m: e.m}
	if cfg.trace {
		model, err := trainTextModel(ctx, d, attackConfig())
		if err != nil {
			return nil, err
		}
		cls = &tracedClassifier{model: model, m: e.m}
	}
	quiet := func(string, ...any) {}
	if e.p, err = ingest.Open(dir, ingest.Config{Logf: quiet}, cls); err != nil {
		return nil, err
	}
	handler := ingest.NewServer(e.p, ingest.WithLogf(quiet)).Handler()
	if cfg.trace {
		handler = tracedIngestHandler(e.p, e.m, handler)
	}
	if e.srv, e.url, err = serve(handler); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < liveConns; i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return e, nil
}

// close stops the server and drains the pipeline.
func (e *liveEnv) close() error {
	if e.srv != nil {
		e.srv.Close()
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.p.Drain(ctx)
}

// statusError is a non-200 acknowledgment.
type statusError int

func (s statusError) Error() string { return "HTTP " + strconv.Itoa(int(s)) }

// send uploads one planned POST due at due on connection c and checks
// that the acknowledgment counts every activity as expected.
func (e *liveEnv) send(ctx context.Context, c int, p post, due time.Time) error {
	var body []byte
	wantAccepted, wantDup := p.n, 0
	if p.retry {
		body = e.stream.appendLine(nil, p.first)
		wantAccepted, wantDup = 0, 1
	} else {
		body = make([]byte, 0, p.n*(len(e.stream.items[0].tail)+40))
		for k := p.first; k < p.first+p.n; k++ {
			e.m.register(k, e.stream.item(k).hash, e.stream.id(k), due)
			body = e.stream.appendLine(body, k)
		}
	}
	ctx, span := obs.StartSpan(ctx, "httpx.post")
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	obs.InjectTraceHeader(ctx, req.Header)
	resp, err := e.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return statusError(resp.StatusCode)
	}
	var ack ingest.UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("decoding acknowledgment: %w", err)
	}
	if ack.Accepted != wantAccepted || ack.Duplicates != wantDup {
		return fmt.Errorf("acknowledged %d new and %d duplicate, want %d and %d",
			ack.Accepted, ack.Duplicates, wantAccepted, wantDup)
	}
	return nil
}

// journalCounters snapshots the durable layer's existing counters.
type journalCounters struct {
	appends      int64
	fsyncs       uint64
	fsyncSeconds float64
}

func readJournalCounters() journalCounters {
	h := obs.GetHistogram("elevpriv_journal_fsync_seconds", nil)
	return journalCounters{
		appends:      obs.GetCounter("elevpriv_journal_appends_total").Value(),
		fsyncs:       h.Count(),
		fsyncSeconds: h.Sum(),
	}
}

func runLive(ctx context.Context, cfg runConfig, shape liveShape, r *record) error {
	plan := planLive(cfg)
	openPosts, openActivities := planOpen(shape, plan.warm+plan.open, cfg.seed)
	capLimit := int(maxCapacityRate*plan.capacity.Seconds()) / shape.lines

	var tracer *obs.Tracer
	w := &waits{}
	if cfg.trace {
		// Per POST: client, server and handler spans, decode and accept per
		// line, sync, and at most one classify batch of three spans.
		spansPerPost := 7 + 2*shape.lines
		capLimit = min(capLimit, (liveTraceSpans-1<<14)/spansPerPost-len(openPosts))
		if capLimit < 1 {
			return fmt.Errorf("trace ring of %d spans too small for %d POSTs", liveTraceSpans, len(openPosts))
		}
		tracer = startTracing(liveTraceSpans)
		defer obs.DisableTracing()
	}
	maxActivities := openActivities + capLimit*shape.lines

	env, err := measureSetup(r, func(i int) (*liveEnv, error) {
		return setupLive(ctx, cfg, plan, maxActivities, filepath.Join(cfg.stateDir, fmt.Sprintf("setup-%d", i)))
	}, (*liveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	// Open loop: the first plan.warm of it warms up and is not measured.
	before, statsBefore, alloc := readJournalCounters(), env.p.Stats(), heapAllocated()
	t0 := time.Now().Add(10 * time.Millisecond)
	offsets := make([]time.Duration, len(openPosts))
	for j, p := range openPosts {
		offsets[j] = p.due
	}
	ops := openLoop(ctx, t0, offsets, liveConns, func(c, j int) error {
		return env.send(ctx, c, openPosts[j], t0.Add(openPosts[j].due))
	})
	openEnd := time.Now()
	classifiedOK := env.m.waitClassified(ctx, 60*time.Second)
	after, statsAfter := readJournalCounters(), env.p.Stats()
	r.set("alloc_kb_per_op", float64(heapAllocated()-alloc)/1024/float64(openActivities), "KB")

	// Closed loop at capacity, same mix, retries of open-loop activities.
	eligible := 0
	for _, p := range openPosts {
		if !p.retry && p.due <= plan.warm+plan.open-retryAge {
			eligible = p.first + p.n
		}
	}
	capStart := time.Now()
	capOps := closedLoop(ctx, capStart.Add(plan.capacity), capLimit, liveConns, func(c, i int) error {
		return env.send(ctx, c, capacityPost(shape, i, openActivities, eligible, cfg.seed), time.Now())
	})
	if err := env.m.waitClassified(ctx, 60*time.Second); err != nil && classifiedOK == nil {
		classifiedOK = err
	}
	r.check("all-classified", classifiedOK == nil && env.m.unmatched == 0,
		"%d activities, %d rows unmatched, %v", env.m.registered, env.m.unmatched, classifiedOK)

	// Statistics over the measured part of the open loop.
	warmEnd := t0.Add(plan.warm)
	ack, late, queued := &dist{}, &dist{}, &dist{}
	failed, rejected := 0, 0
	for _, o := range append(ops, capOps...) {
		if o.err == nil {
			continue
		}
		failed++
		if se, ok := o.err.(statusError); ok && (se == http.StatusTooManyRequests || se == http.StatusServiceUnavailable) {
			rejected++
		}
		if failed == 1 {
			r.Checks = append(r.Checks, check{Name: "first-error", Detail: o.err.Error()})
		}
	}
	r.attempt(len(ops)+len(capOps), failed)
	for i := range ops {
		o := &ops[i]
		if o.due.Before(warmEnd) || o.err != nil {
			continue
		}
		ack.addDur(o.latency())
		late.addDur(o.lateness())
		queued.addDur(o.start.Sub(o.due))
	}

	env.m.mu.Lock()
	result, spool := &dist{}, &dist{}
	warmOff := warmEnd.Sub(env.m.epoch)
	for k := 0; k < openActivities; k++ {
		if env.m.due[k] < warmOff || env.m.classEnd[k] == 0 {
			continue
		}
		result.addDur(env.m.classEnd[k] - env.m.due[k])
		if env.m.accepted != nil && env.m.accepted[k] > 0 {
			spool.addDur(env.m.classStart[k] - env.m.accepted[k])
		}
	}
	var capEnd time.Duration
	capNew := 0
	for k := openActivities; k < maxActivities; k++ {
		if env.m.classEnd[k] > 0 {
			capNew++
			capEnd = max(capEnd, env.m.classEnd[k])
		}
	}
	capSeconds := (capEnd - capStart.Sub(env.m.epoch)).Seconds()
	env.m.mu.Unlock()

	r.set("main_p50_ms", result.q(0.5)/1e6, "ms")
	r.set("aux_p50_ms", ack.q(0.5)/1e6, "ms")
	if capNew > 0 && capSeconds > 0 {
		r.detail("capacity_per_s", float64(capNew)/capSeconds, "1/s")
	}
	r.Samples["main_p50_ms"], r.Samples["aux_p50_ms"] = result.n(), ack.n()
	r.tail("result", result)
	r.tail("ack", ack)
	r.detail("capacity_activities", float64(capNew), "count")
	r.detail("generator_lateness_p50_ms", late.q(0.5)/1e6, "ms")
	r.detail("generator_lateness_p99_ms", late.q(0.99)/1e6, "ms")
	r.detail("generator_lateness_max_ms", late.q(1)/1e6, "ms")
	r.Samples["generator_lateness_p99_ms"] = late.n()
	// A traced run reports no end-to-end metric, so only untraced runs are
	// held to the rule.
	if p99 := time.Duration(late.q(0.99)); p99 > maxLateness && !cfg.quick && !cfg.trace {
		r.Invalid = append(r.Invalid, fmt.Sprintf("generator lateness p99 %s exceeds %s", p99, maxLateness))
	}
	w.add("httpx", time.Duration(queued.sum()))
	w.add("ingest", time.Duration(spool.sum()))

	// Peak memory of the measured phases; the offline baseline below is
	// the benchmark's own work.
	r.detail("peak_rss_mb", peakRSSMB(), "MB")
	if err := liveDumpCheck(ctx, r, env); err != nil {
		return err
	}

	if !cfg.trace {
		return nil
	}
	spans, err := finishTracing(r, tracer, w, cfg.traceOut)
	if err != nil {
		return err
	}
	set := newSpanSet(spans)
	l := liveLayerInputs{ack: ack, result: result, spool: spool, lo: warmEnd, hi: openEnd,
		rejected: rejected, activities: statsAfter.Accepted - statsBefore.Accepted,
		duplicates: statsAfter.Duplicates - statsBefore.Duplicates, before: before, after: after}
	liveLayers(r, set, l)
	return nil
}

// liveDumpCheck compares the live results dump with an offline
// single-batch PredictLocations over the deduplicated stream, and reports
// the live accuracy against the generated regions.
func liveDumpCheck(ctx context.Context, r *record, e *liveEnv) error {
	e.m.mu.Lock()
	n := e.m.registered
	e.m.mu.Unlock()
	// Results are journaled after ClassifyBatch returns; wait for the
	// ledger to hold every activity before reading the dump.
	for deadline := time.Now().Add(10 * time.Second); e.p.Stats().Results < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/ingest/results", nil)
	if err != nil {
		return err
	}
	resp, err := e.clients[0].Do(req)
	if err != nil {
		return fmt.Errorf("fetching results: %w", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("fetching results: %w", err)
	}

	ids := make([]int, n)
	for k := range ids {
		ids[k] = k
	}
	sort.Slice(ids, func(i, j int) bool { return e.stream.id(ids[i]) < e.stream.id(ids[j]) })
	profiles := make([][]float64, n)
	for i, k := range ids {
		profiles[i] = e.stream.item(k).elevs
	}
	want := &bytes.Buffer{}
	correct := 0
	if n > 0 {
		preds, err := e.attack.PredictLocations(profiles)
		if err != nil {
			return fmt.Errorf("offline baseline: %w", err)
		}
		for i, k := range ids {
			line, err := json.Marshal(ingest.ResultLine{ID: e.stream.id(k), Predicted: preds[i]})
			if err != nil {
				return err
			}
			want.Write(line)
			want.WriteByte('\n')
			if preds[i] == e.stream.item(k).region {
				correct++
			}
		}
	}
	r.check("results-identical", n > 0 && bytes.Equal(got, want.Bytes()),
		"live dump %d bytes, offline %d bytes, %d activities", len(got), want.Len(), n)
	if n > 0 {
		r.detail("live_accuracy", float64(correct)/float64(n), "ratio")
	}
	return nil
}
