// Package cluster is the transport that turns internal/shard's router
// into a small distributed system: a typed HTTP client for the worker
// surface internal/serve exposes (submit, cancel, poll, withdraw, stats,
// healthz — JSON bodies, per-request timeouts, bounded retries with
// exponential backoff and jitter), and a RemoteShard adapter that lets
// shard.Router drive a separate-process `pstld -worker` exactly like an
// in-process shard. Submits are idempotent across retries because the
// router stamps Spec.ID and the worker dedupes on it: a submit whose
// response is lost after the worker accepted returns the same job on
// retry, never a second execution.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// ClientConfig configures one worker client.
type ClientConfig struct {
	// BaseURL is the worker's base URL, e.g. "http://127.0.0.1:9001".
	BaseURL string
	// Timeout bounds each attempt (default 2s).
	Timeout time.Duration
	// Retries is how many attempts beyond the first an idempotent request
	// gets (default 3). Non-idempotent requests (withdraw) never retry.
	Retries int
	// BackoffBase is the first retry's backoff (default 25ms); each
	// further retry doubles it up to backoffMax, with equal jitter so
	// synchronized retry storms decorrelate.
	BackoffBase time.Duration
	// Transport, when non-nil, replaces http.DefaultTransport — the fault-
	// injection hook the retry tests use.
	Transport http.RoundTripper
	// Metrics, when non-nil, receives the transport counters, labeled by
	// BaseURL.
	Metrics *obs.ClusterMetrics
}

// backoffMax caps the retry backoff.
const backoffMax = time.Second

// Client is a typed HTTP client for one worker's serve surface.
type Client struct {
	base        string
	hc          *http.Client
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	retriesC    *obs.Counter
	timeoutsC   *obs.Counter
}

// NewClient builds a worker client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	tr := cfg.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	return &Client{
		base:        cfg.BaseURL,
		hc:          &http.Client{Transport: tr},
		timeout:     cfg.Timeout,
		retries:     cfg.Retries,
		backoffBase: cfg.BackoffBase,
		retriesC:    cfg.Metrics.Retries(cfg.BaseURL),
		timeoutsC:   cfg.Metrics.Timeouts(cfg.BaseURL),
	}
}

// do runs one exchange with bounded retries: transport errors, timeouts,
// and 5xx responses retry with exponential backoff plus jitter when
// retryable; any other status returns to the caller for decoding. Only
// requests that are idempotent on the worker may pass retryable=true —
// submits qualify because the worker dedupes on Spec.ID.
func (c *Client) do(method, path string, in any, retryable bool) (int, []byte, error) {
	var reqBody []byte
	if in != nil {
		var err error
		if reqBody, err = json.Marshal(in); err != nil {
			return 0, nil, err
		}
	}
	attempts := 1
	if retryable {
		attempts += c.retries
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.retriesC.Inc()
			time.Sleep(c.backoff(a))
		}
		status, body, err := c.once(method, path, reqBody)
		if err != nil {
			if isTimeout(err) {
				c.timeoutsC.Inc()
			}
			lastErr = err
			continue
		}
		if status >= 500 {
			lastErr = fmt.Errorf("cluster: %s %s: status %d: %s", method, path, status, errMsg(body))
			continue
		}
		return status, body, nil
	}
	return 0, nil, fmt.Errorf("cluster: %s %s failed after %d attempt(s): %w", method, path, attempts, lastErr)
}

func (c *Client) once(method, path string, reqBody []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(reqBody))
	if err != nil {
		return 0, nil, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// backoff returns the a'th retry's delay: exponential with equal jitter
// (half fixed, half uniform), capped at backoffMax.
func (c *Client) backoff(a int) time.Duration {
	d := c.backoffBase << (a - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// errMsg extracts the serve error envelope's message, falling back to the
// raw body.
func errMsg(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(body)
}

// Submit places a job on the worker. The request is retried on transport
// failure — safe if and only if spec.ID is set (the router always sets
// it); an unset ID submits exactly once. A relative Deadline is converted
// to an absolute deadline_unix_ms here, at the edge closest to the
// client's clock, so transport latency can only shrink the budget.
func (c *Client) Submit(spec serve.Spec) (serve.JobInfo, error) {
	req := serve.SubmitRequest{
		ID:     spec.ID,
		Kernel: spec.Kernel,
		N:      spec.N,
		Tenant: spec.Tenant,
	}
	switch {
	case !spec.DeadlineAt.IsZero():
		req.DeadlineUnixMS = spec.DeadlineAt.UnixMilli()
	case spec.Deadline > 0:
		req.DeadlineUnixMS = time.Now().Add(spec.Deadline).UnixMilli()
	}
	status, body, err := c.do("POST", "/jobs", req, spec.ID != "")
	if err != nil {
		return serve.JobInfo{}, err
	}
	switch status {
	case http.StatusAccepted, http.StatusOK:
		var info serve.JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return serve.JobInfo{}, fmt.Errorf("cluster: bad submit response: %w", err)
		}
		return info, nil
	case http.StatusTooManyRequests:
		var e struct {
			Error        string `json:"error"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		}
		_ = json.Unmarshal(body, &e)
		return serve.JobInfo{}, &serve.SaturatedError{RetryAfter: time.Duration(e.RetryAfterMS) * time.Millisecond}
	case http.StatusServiceUnavailable:
		return serve.JobInfo{}, serve.ErrClosed
	default:
		return serve.JobInfo{}, fmt.Errorf("cluster: submit rejected: status %d: %s", status, errMsg(body))
	}
}

// Get fetches one job's status; found=false means the worker does not
// know the ID.
func (c *Client) Get(id string) (serve.JobInfo, bool, error) {
	status, body, err := c.do("GET", "/jobs/"+id, nil, true)
	if err != nil {
		return serve.JobInfo{}, false, err
	}
	if status == http.StatusNotFound {
		return serve.JobInfo{}, false, nil
	}
	var info serve.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return serve.JobInfo{}, false, err
	}
	return info, true, nil
}

// Cancel cancels a job on the worker.
func (c *Client) Cancel(id string) (serve.JobInfo, error) {
	status, body, err := c.do("DELETE", "/jobs/"+id, nil, true)
	if err != nil {
		return serve.JobInfo{}, err
	}
	if status == http.StatusNotFound {
		return serve.JobInfo{}, fmt.Errorf("cluster: no job %q on worker", id)
	}
	var info serve.JobInfo
	err = json.Unmarshal(body, &info)
	return info, err
}

// Poll batch-queries job statuses: one RPC regardless of how many jobs
// are in flight. Missing lists IDs the worker no longer knows.
func (c *Client) Poll(ids []string) (jobs []serve.JobInfo, missing []string, err error) {
	status, body, err := c.do("POST", "/jobs/poll", serve.PollRequest{IDs: ids}, true)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("cluster: poll: status %d: %s", status, errMsg(body))
	}
	var resp serve.PollResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	return resp.Jobs, resp.Missing, nil
}

// Withdraw removes up to max queued jobs for migration. Never retried: a
// withdraw whose response is lost has already dequeued jobs on the
// worker, and a retry would withdraw a second batch. The lost jobs
// surface as poll misses and re-place through the router's lost path.
func (c *Client) Withdraw(max int) ([]string, error) {
	status, body, err := c.do("POST", "/withdraw", serve.WithdrawRequest{Max: max}, false)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: withdraw: status %d: %s", status, errMsg(body))
	}
	var resp serve.WithdrawResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Healthz probes the worker: a single attempt on purpose — the health
// plane's failure counting is the retry policy.
func (c *Client) Healthz() (serve.HealthInfo, error) {
	status, body, err := c.do("GET", "/healthz", nil, false)
	if err != nil {
		return serve.HealthInfo{}, err
	}
	var h serve.HealthInfo
	if err := json.Unmarshal(body, &h); err != nil {
		return serve.HealthInfo{}, err
	}
	if status != http.StatusOK || !h.OK {
		return h, fmt.Errorf("cluster: worker unhealthy (status %d)", status)
	}
	return h, nil
}

// Stats fetches the worker's stats snapshot: a single attempt, so a stats
// scrape against a dead worker fails fast and the caller serves its
// cached copy.
func (c *Client) Stats() (serve.Stats, error) {
	status, body, err := c.do("GET", "/stats", nil, false)
	if err != nil {
		return serve.Stats{}, err
	}
	if status != http.StatusOK {
		return serve.Stats{}, fmt.Errorf("cluster: stats: status %d: %s", status, errMsg(body))
	}
	var st serve.Stats
	err = json.Unmarshal(body, &st)
	return st, err
}

// Join registers a worker with a running router: POST routerURL
// /cluster/join with the worker's advertised URL. Retried — the router
// dedupes nothing here, but AddShard of the same worker twice is the
// operator's error, and the common failure (router still starting) wants
// the retry.
func Join(routerURL, workerURL string, timeout time.Duration) error {
	c := NewClient(ClientConfig{BaseURL: routerURL, Timeout: timeout})
	status, body, err := c.do("POST", "/cluster/join", shardJoinRequest{URL: workerURL}, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: join rejected: status %d: %s", status, errMsg(body))
	}
	return nil
}

// shardJoinRequest mirrors shard.JoinRequest without importing the
// package into every client user.
type shardJoinRequest struct {
	URL string `json:"url"`
}
