package elevsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"elevprivacy/internal/geo"
	"elevprivacy/internal/httpx"
)

// Client queries an elevation service over HTTP. It implements the same
// call shape the paper used against the Google Maps Elevation API: a path
// plus a sample count, answered with evenly spaced elevations. A Client
// speaks either to a single instance (NewClient) or to a sharded tier
// behind an endpoint pool (NewPoolClient), where requests route by
// consistent hash on the polyline so each shard's profile cache owns a
// stable slice of the paths.
type Client struct {
	baseURL string
	httpc   httpx.Doer
	pool    *httpx.Pool
}

// NewClient creates a client for the service at baseURL (trailing slashes
// are normalized away). httpc may be a bare *http.Client or an httpx.Client
// carrying retries and rate limits; nil gets a default httpx.Client with
// per-attempt timeouts and bounded retries, so a hung server can never
// block a sweep forever.
func NewClient(baseURL string, httpc httpx.Doer) *Client {
	if httpc == nil {
		httpc = httpx.NewClient(nil)
	}
	return &Client{baseURL: httpx.NormalizeBaseURL(baseURL), httpc: httpc}
}

// NewPoolClient creates a client issuing requests through a multi-endpoint
// pool. The pool owns retries, failover, and circuit breaking — do not hand
// it a transport that retries internally.
func NewPoolClient(pool *httpx.Pool) *Client {
	return &Client{pool: pool}
}

// APIError is a non-OK service response.
type APIError struct {
	// Status is the service status string, e.g. "INVALID_REQUEST".
	Status string
	// Message is the human-readable detail.
	Message string
	// HTTPCode is the transport status code.
	HTTPCode int
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("elevsvc: %s (http %d): %s", e.Status, e.HTTPCode, e.Message)
}

// ElevationAlongPath returns samples evenly spaced elevations along path.
func (c *Client) ElevationAlongPath(ctx context.Context, path geo.Path, samples int) ([]float64, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("elevsvc: empty path")
	}
	if samples < 2 || samples > MaxSamples {
		return nil, fmt.Errorf("elevsvc: samples %d outside [2,%d]", samples, MaxSamples)
	}

	encoded := geo.EncodePolyline(path)
	q := url.Values{}
	q.Set("path", encoded)
	q.Set("samples", strconv.Itoa(samples))
	// Shard by polyline (not polyline+samples) so every profile of one
	// segment warms the same shard's cache.
	resp, err := c.get(ctx, "/v1/elevation/path", q, encoded)
	if err != nil {
		return nil, err
	}

	out := make([]float64, 0, len(resp.Results))
	for _, r := range resp.Results {
		out = append(out, r.Elevation)
	}
	if len(out) != samples {
		return nil, fmt.Errorf("elevsvc: service returned %d samples, want %d", len(out), samples)
	}
	return out, nil
}

// get performs the request and decodes the envelope, mapping non-OK
// statuses to *APIError. key is the request's shard identity: pool-backed
// clients hash it to pick the endpoint, single-endpoint clients ignore it.
func (c *Client) get(ctx context.Context, endpoint string, q url.Values, key string) (*Response, error) {
	httpResp, err := c.issue(ctx, endpoint+"?"+q.Encode(), key)
	if err != nil {
		return nil, fmt.Errorf("elevsvc: request failed: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, httpResp.Body)
		_ = httpResp.Body.Close()
	}()

	// A proxy or load balancer in front of the service answers errors in
	// plain text or HTML; decoding those as JSON used to misreport a 502
	// as "invalid character" noise. Only JSON bodies carry the envelope.
	if !jsonBody(httpResp) {
		snippet := bodySnippet(httpResp.Body)
		return nil, &APIError{
			Status:   fmt.Sprintf("HTTP_%d", httpResp.StatusCode),
			Message:  snippet,
			HTTPCode: httpResp.StatusCode,
		}
	}

	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("elevsvc: decoding response: %w", err)
	}
	if resp.Status != "OK" {
		return nil, &APIError{Status: resp.Status, Message: resp.ErrorMessage, HTTPCode: httpResp.StatusCode}
	}
	return &resp, nil
}

// issue sends the GET through the pool (hashing key for shard affinity) or
// the single-endpoint transport.
func (c *Client) issue(ctx context.Context, pathAndQuery, key string) (*http.Response, error) {
	if c.pool != nil {
		return c.pool.Get(ctx, httpx.HashKey(key), pathAndQuery)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+pathAndQuery, nil)
	if err != nil {
		return nil, fmt.Errorf("building request: %w", err)
	}
	return c.httpc.Do(req)
}

// jsonBody reports whether the response declares a JSON media type.
func jsonBody(resp *http.Response) bool {
	mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		return false
	}
	return mt == "application/json" || strings.HasSuffix(mt, "+json")
}

// bodySnippet reads a bounded prefix of an error body for diagnostics.
func bodySnippet(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 256))
	return strings.TrimSpace(string(b))
}
