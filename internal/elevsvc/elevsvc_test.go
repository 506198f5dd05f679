package elevsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"elevprivacy/internal/dem"
	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/terrain"
)

// testSource is a deterministic analytic elevation field for tests.
type testSource struct{}

func (testSource) ElevationAt(p geo.LatLng) (float64, error) {
	if p.Lat > 80 {
		return 0, dem.ErrOutOfBounds
	}
	return 100 + 10*p.Lat + p.Lng, nil
}

// failSource always fails with a non-out-of-bounds error.
type failSource struct{}

func (failSource) ElevationAt(geo.LatLng) (float64, error) {
	return 0, errors.New("disk on fire")
}

func newTestServer(t *testing.T, src dem.Source) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewServer(src, WithLogf(t.Logf)).Handler())
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, srv.Client())
}

// pointQuery asks the service for the elevation of one point through the
// client's request path.
func pointQuery(ctx context.Context, c *Client, p geo.LatLng) (float64, error) {
	q := url.Values{}
	q.Set("lat", strconv.FormatFloat(p.Lat, 'f', -1, 64))
	q.Set("lng", strconv.FormatFloat(p.Lng, 'f', -1, 64))
	resp, err := c.get(ctx, "/v1/elevation/point", q, q.Encode())
	if err != nil {
		return 0, err
	}
	if len(resp.Results) != 1 {
		return 0, fmt.Errorf("service returned %d results, want 1", len(resp.Results))
	}
	return resp.Results[0].Elevation, nil
}

func TestPathSamplingEndToEnd(t *testing.T) {
	_, client := newTestServer(t, testSource{})

	path := geo.Path{{Lat: 10, Lng: 0}, {Lat: 20, Lng: 0}}
	got, err := client.ElevationAlongPath(context.Background(), path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("samples = %d, want 5", len(got))
	}
	// Field is 100 + 10*lat, so endpoints are 200 and 300 and the series
	// must be monotone.
	if math.Abs(got[0]-200) > 0.5 || math.Abs(got[4]-300) > 0.5 {
		t.Errorf("endpoints = %f, %f; want ~200, ~300", got[0], got[4])
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("series not monotone at %d", i)
		}
	}
}

func TestPointQueryEndToEnd(t *testing.T) {
	_, client := newTestServer(t, testSource{})
	got, err := pointQuery(context.Background(), client, geo.LatLng{Lat: 5, Lng: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-153) > 1e-9 {
		t.Errorf("elevation = %f, want 153", got)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, testSource{})

	tests := []struct {
		name     string
		url      string
		wantCode int
		wantStat string
	}{
		{"missing path", "/v1/elevation/path?samples=5", http.StatusBadRequest, "INVALID_REQUEST"},
		{"missing samples", "/v1/elevation/path?path=_p~iF~ps%7CU", http.StatusBadRequest, "INVALID_REQUEST"},
		{"samples too small", "/v1/elevation/path?path=_p~iF~ps%7CU&samples=1", http.StatusBadRequest, "INVALID_REQUEST"},
		{"samples too large", "/v1/elevation/path?path=_p~iF~ps%7CU&samples=100000", http.StatusBadRequest, "INVALID_REQUEST"},
		{"bad polyline", "/v1/elevation/path?path=%01%02&samples=5", http.StatusBadRequest, "INVALID_REQUEST"},
		{"bad point params", "/v1/elevation/point?lat=abc&lng=1", http.StatusBadRequest, "INVALID_REQUEST"},
		{"point out of domain", "/v1/elevation/point?lat=95&lng=1", http.StatusBadRequest, "INVALID_REQUEST"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(srv.URL + tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var body Response
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Status != tc.wantStat {
				t.Errorf("envelope status = %q, want %q", body.Status, tc.wantStat)
			}
			if body.ErrorMessage == "" {
				t.Error("error message empty")
			}
		})
	}
}

func TestOutOfCoverageReportsDataNotAvailable(t *testing.T) {
	_, client := newTestServer(t, testSource{})
	_, err := pointQuery(context.Background(), client, geo.LatLng{Lat: 85, Lng: 0})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != "DATA_NOT_AVAILABLE" {
		t.Errorf("status = %q, want DATA_NOT_AVAILABLE", apiErr.Status)
	}
	if apiErr.HTTPCode != http.StatusOK {
		t.Errorf("http code = %d, want 200 (envelope-level error)", apiErr.HTTPCode)
	}
}

func TestInternalErrorsAreOpaque(t *testing.T) {
	_, client := newTestServer(t, failSource{})
	_, err := pointQuery(context.Background(), client, geo.LatLng{Lat: 1, Lng: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != "UNKNOWN_ERROR" || apiErr.HTTPCode != http.StatusInternalServerError {
		t.Errorf("got %+v", apiErr)
	}
	if strings.Contains(apiErr.Message, "disk on fire") {
		t.Error("internal error detail leaked to client")
	}
}

// TestNonJSONErrorBodyBecomesAPIError pins the fix for the proxy-error bug:
// a plain-text 502 used to surface as "decoding response: invalid character
// ..." instead of an *APIError carrying the HTTP code.
func TestNonJSONErrorBodyBecomesAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "Bad Gateway: upstream connect error", http.StatusBadGateway)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	_, err := pointQuery(context.Background(), client, geo.LatLng{Lat: 1, Lng: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.HTTPCode != http.StatusBadGateway {
		t.Errorf("http code = %d, want 502", apiErr.HTTPCode)
	}
	if apiErr.Status != "HTTP_502" {
		t.Errorf("status = %q, want HTTP_502", apiErr.Status)
	}
	if !strings.Contains(apiErr.Message, "upstream connect error") {
		t.Errorf("message %q lost the body snippet", apiErr.Message)
	}
	if strings.Contains(err.Error(), "invalid character") {
		t.Errorf("err = %v still reads like a JSON decode failure", err)
	}
}

// TestDefaultClientHasTimeout pins the NewClient(nil) contract: the fallback
// is a resilient client with timeouts, never the timeout-less
// http.DefaultClient that let a hung server block the miner forever.
func TestDefaultClientHasTimeout(t *testing.T) {
	c := NewClient("http://127.0.0.1:0", nil)
	if _, ok := c.httpc.(*httpx.Client); !ok {
		t.Fatalf("nil fallback is %T, want *httpx.Client", c.httpc)
	}
}

func TestClientValidatesBeforeSending(t *testing.T) {
	client := NewClient("http://127.0.0.1:0", nil) // never dialed
	ctx := context.Background()
	if _, err := client.ElevationAlongPath(ctx, nil, 5); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := client.ElevationAlongPath(ctx, geo.Path{{Lat: 1, Lng: 1}}, 1); err == nil {
		t.Error("samples=1 accepted")
	}
	if _, err := client.ElevationAlongPath(ctx, geo.Path{{Lat: 1, Lng: 1}}, MaxSamples+1); err == nil {
		t.Error("samples over limit accepted")
	}
}

func TestClientContextCancellation(t *testing.T) {
	srv, client := newTestServer(t, testSource{})
	_ = srv
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pointQuery(ctx, client, geo.LatLng{Lat: 1, Lng: 1})
	if err == nil {
		t.Fatal("cancelled context should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
}

// TestAgainstRealTerrain wires the service to an actual city terrain and
// checks that path samples reflect the analytic field.
func TestAgainstRealTerrain(t *testing.T) {
	world := terrain.World()
	cs, err := terrain.CityByName(world, "CS")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cs.Terrain()
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, tr)

	path := geo.Path{
		cs.Center,
		cs.Center.Destination(270, 3000),
	}
	samples, err := client.ElevationAlongPath(context.Background(), path, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Colorado Springs sits near 1860 m; every sample must be plausibly high.
	for i, s := range samples {
		if s < 1400 || s > 2600 {
			t.Errorf("sample %d = %f, outside plausible CS range", i, s)
		}
	}
}

func TestResponseEnvelopeShape(t *testing.T) {
	srv, _ := newTestServer(t, testSource{})
	q := url.Values{}
	q.Set("path", geo.EncodePolyline(geo.Path{{Lat: 1, Lng: 1}, {Lat: 2, Lng: 2}}))
	q.Set("samples", "3")
	resp, err := http.Get(srv.URL + "/v1/elevation/path?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var body Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "OK" || len(body.Results) != 3 {
		t.Errorf("envelope = %+v", body)
	}
	// Locations are echoed back.
	if math.Abs(body.Results[0].Location.Lat-1) > 1e-4 {
		t.Errorf("first location = %+v", body.Results[0].Location)
	}
}

// countingSource counts ElevationAt calls over testSource.
type countingSource struct {
	calls atomic.Int64
}

func (c *countingSource) ElevationAt(p geo.LatLng) (float64, error) {
	c.calls.Add(1)
	return testSource{}.ElevationAt(p)
}

func TestProfileCacheServesRepeatsWithoutResampling(t *testing.T) {
	src := &countingSource{}
	srv := httptest.NewServer(NewServer(src, WithLogf(t.Logf)).Handler())
	t.Cleanup(srv.Close)

	q := "/v1/elevation/path?path=" + url.QueryEscape(geo.EncodePolyline(geo.Path{{Lat: 10, Lng: 0}, {Lat: 20, Lng: 0}})) + "&samples=5"
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := get()
	callsAfterFirst := src.calls.Load()
	second := get()
	if src.calls.Load() != callsAfterFirst {
		t.Errorf("repeat query re-sampled the source (%d -> %d calls)",
			callsAfterFirst, src.calls.Load())
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from fresh one:\n%s\nvs\n%s", first, second)
	}
}

func TestProfileCacheSkipsNonOK(t *testing.T) {
	// Out-of-coverage answers (DATA_NOT_AVAILABLE) must not be cached; every
	// request reaches the source again.
	src := &countingSource{}
	srv := httptest.NewServer(NewServer(src, WithLogf(t.Logf)).Handler())
	t.Cleanup(srv.Close)

	q := "/v1/elevation/path?path=" + url.QueryEscape(geo.EncodePolyline(geo.Path{{Lat: 85, Lng: 0}, {Lat: 86, Lng: 0}})) + "&samples=2"
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		var env Response
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if env.Status != "DATA_NOT_AVAILABLE" {
			t.Fatalf("status %q, want DATA_NOT_AVAILABLE", env.Status)
		}
	}
	if src.calls.Load() < 2 {
		t.Errorf("source saw %d calls, want >=2 (non-OK must not be cached)", src.calls.Load())
	}
}

// TestClientNormalizesTrailingSlash pins the base-URL fix: a configured
// address like "http://host:port/" used to produce "//v1/..." request paths
// that miss the mux routes entirely.
func TestClientNormalizesTrailingSlash(t *testing.T) {
	srv := httptest.NewServer(NewServer(testSource{}, WithLogf(t.Logf)).Handler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL+"/", srv.Client())

	if _, err := pointQuery(context.Background(), client, geo.LatLng{Lat: 10, Lng: 10}); err != nil {
		t.Fatalf("point query through slash-suffixed base URL: %v", err)
	}
}
