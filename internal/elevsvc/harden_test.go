package elevsvc

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"elevprivacy/internal/geo"
)

// panicSource simulates a bug in the elevation backend.
type panicSource struct{}

func (panicSource) ElevationAt(geo.LatLng) (float64, error) {
	panic("corrupt raster index")
}

// blockSource parks every query until released, to pin the in-flight slot.
type blockSource struct {
	started chan struct{}
	release chan struct{}
}

func (b blockSource) ElevationAt(geo.LatLng) (float64, error) {
	b.started <- struct{}{}
	<-b.release
	return 0, nil
}

func TestHealthzBypassesShedding(t *testing.T) {
	src := blockSource{started: make(chan struct{}, 1), release: make(chan struct{})}
	es := NewServer(src, WithLogf(t.Logf))
	es.maxInFlight = 1
	srv := httptest.NewServer(es.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/v1/elevation/point?lat=1&lng=2")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-src.started // the only slot is taken

	// A second data request is shed...
	resp, err := http.Get(srv.URL + "/v1/elevation/point?lat=1&lng=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded data request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// ...but the liveness probe still answers.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"elevsvc"`) {
		t.Fatalf("healthz under load = %d %q", resp.StatusCode, body)
	}

	close(src.release)
	wg.Wait()
}

func TestPanickingSourceQuarantinesRequest(t *testing.T) {
	srv := httptest.NewServer(NewServer(panicSource{}, WithLogf(t.Logf)).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/elevation/point?lat=1&lng=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking source returned %d, want 500", resp.StatusCode)
	}

	// The server survived; an independent probe still succeeds.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: healthz = %d", resp.StatusCode)
	}
}

func TestRequestTimeoutBoundsSlowSource(t *testing.T) {
	src := blockSource{started: make(chan struct{}, 1), release: make(chan struct{})}
	es := NewServer(src, WithLogf(t.Logf))
	es.reqTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(es.Handler())
	defer srv.Close()
	defer close(src.release) // unblock the abandoned handler before Close waits on it

	go func() { <-src.started }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/elevation/point?lat=1&lng=2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow request = %d, want 503", resp.StatusCode)
	}
}
