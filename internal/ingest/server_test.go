package ingest

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, cfg Config, cls Classifier) (*Pipeline, *httptest.Server) {
	t.Helper()
	cfg.Logf = discardLogf
	p, err := Open(t.TempDir(), cfg, cls)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p, WithLogf(discardLogf)).Handler())
	t.Cleanup(srv.Close)
	return p, srv
}

func postNDJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func lines(envs ...Envelope) string {
	var sb strings.Builder
	for _, e := range envs {
		b, _ := EncodeLine(e)
		sb.Write(b)
	}
	return sb.String()
}

func TestServerUploadAndResults(t *testing.T) {
	p, srv := newTestServer(t, Config{MaxBatch: 8}, newTestClassifier())

	resp := postNDJSON(t, srv.URL, lines(env(0), env(1), env(2))+"\n"+lines(env(1)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload = %d: %s", resp.StatusCode, body)
	}
	var ur UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if ur.Accepted != 3 || ur.Duplicates != 1 {
		t.Fatalf("upload response = %+v, want 3 accepted, 1 duplicate", ur)
	}

	waitFor(t, "uploads classified", func() bool { return p.Stats().Results == 3 })
	rr, err := http.Get(srv.URL + "/ingest/results")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	body, _ := io.ReadAll(rr.Body)
	got := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(got) != 3 {
		t.Fatalf("results dump has %d lines, want 3: %q", len(got), body)
	}
	var prev string
	for _, line := range got {
		var rl ResultLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			t.Fatalf("results line %q: %v", line, err)
		}
		if rl.ID <= prev {
			t.Fatalf("results dump not sorted: %q after %q", rl.ID, prev)
		}
		prev = rl.ID
		if want := label(0); rl.ID == env(0).ID && rl.Predicted != want {
			t.Fatalf("prediction for %s = %q, want %q", rl.ID, rl.Predicted, want)
		}
	}

	sr, err := http.Get(srv.URL + "/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 3 || st.Results != 3 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerRejectsMalformedLineButKeepsPrefix(t *testing.T) {
	p, srv := newTestServer(t, Config{MaxBatch: 8}, newTestClassifier())

	body := lines(env(0)) + "{broken json\n" + lines(env(1))
	resp := postNDJSON(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload = %d, want 400", resp.StatusCode)
	}
	var ur struct {
		UploadResponse
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	// The line before the malformed one was accepted and synced; the line
	// after was never read.
	if ur.Accepted != 1 || !strings.Contains(ur.Error, "line 2") {
		t.Fatalf("response = %+v", ur)
	}
	waitFor(t, "accepted prefix classified", func() bool { return p.Stats().Results == 1 })
	if p.intake.Has(env(1).ID) {
		t.Fatal("the line after the malformed one was accepted")
	}
}

func TestServerBoundsHostileLine(t *testing.T) {
	_, srv := newTestServer(t, Config{
		MaxBatch: 8,
		Limits:   Limits{MaxLineBytes: 128},
	}, newTestClassifier())

	huge := `{"id":"a","elevations":[` + strings.Repeat("1,", 400) + `1]}` + "\n"
	resp := postNDJSON(t, srv.URL, huge)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized line = %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "byte bound") {
		t.Fatalf("oversized-line error does not name the bound: %s", body)
	}
}

func TestServerShedsWithRetryAfterWhenBacklogFull(t *testing.T) {
	cls := newTestClassifier()
	cls.gate = make(chan struct{})
	defer close(cls.gate)
	p, srv := newTestServer(t, Config{SpoolDepth: 1, MaxBatch: 1, MaxBacklog: 1}, cls)

	// Wedge the classifier, fill the spool and the backlog.
	resp := postNDJSON(t, srv.URL, lines(env(0)))
	resp.Body.Close()
	waitFor(t, "classifier to wedge", func() bool { return cls.batchesStarted() == 1 })
	resp = postNDJSON(t, srv.URL, lines(env(1), env(2)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filling upload = %d, want 200", resp.StatusCode)
	}

	resp = postNDJSON(t, srv.URL, lines(env(3)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload upload = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After hint")
	}
	if p.intake.Has(env(3).ID) {
		t.Fatal("shed activity was journaled")
	}
}

func TestServerRefusesWhileDraining(t *testing.T) {
	p, srv := newTestServer(t, Config{MaxBatch: 8}, newTestClassifier())
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postNDJSON(t, srv.URL, lines(env(0)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload during drain = %d, want 503", resp.StatusCode)
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestServerUploadHeapScalesWithBody(t *testing.T) {
	// A one-line upload allocates for its line, not for the 64 KiB scanner
	// buffer a line could need.
	p, err := Open(t.TempDir(), Config{Logf: discardLogf}, newTestClassifier())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain(context.Background())
	h := NewServer(p, WithLogf(discardLogf)).Handler()
	post := func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(lines(env(i)))))
		if rec.Code != http.StatusOK {
			t.Fatalf("upload = %d: %s", rec.Code, rec.Body)
		}
	}
	post(0) // warm-up
	waitFor(t, "warm-up classified", func() bool { return p.Stats().Results == 1 })
	if got := allocatedBy(func() { post(1) }); got >= 16<<10 {
		t.Fatalf("one-line upload allocated %d bytes, want well under the 64 KiB scanner buffer", got)
	}
}
