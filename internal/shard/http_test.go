package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pstlbench/internal/serve"
)

// routerHTTP starts a router behind its HTTP handler, with the background
// rebalancer and health plane off so tests drive both directly.
func routerHTTP(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	cfg.RebalanceEvery, cfg.HeartbeatEvery = -1, -1
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })
	return r, ts
}

// call issues one request and returns its status, headers, and raw body.
func call(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// pollTerminal GETs a job until it is done or canceled.
func pollTerminal(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, raw := call(t, http.MethodGet, ts.URL+"/jobs/"+id, "")
		var info JobInfo
		if status != http.StatusOK || json.Unmarshal(raw, &info) != nil {
			t.Fatalf("GET %s: status %d body %s", id, status, raw)
		}
		if info.State == "done" || info.State == "canceled" {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, info.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterHTTPSubmitReportsShard: a 202 carries the placement, and the
// job completes with its kernel's checksum through GET.
func TestRouterHTTPSubmitReportsShard(t *testing.T) {
	_, ts := routerHTTP(t, Config{Shards: 2, Serve: serve.Config{Workers: 1}})
	status, _, raw := call(t, http.MethodPost, ts.URL+"/jobs", `{"kernel":"reduce","n":4096,"tenant":"web"}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d body %s, want 202", status, raw)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["shard"]; !ok {
		t.Fatalf("202 body %s has no shard field", raw)
	}
	var info JobInfo
	json.Unmarshal(raw, &info)
	if info.Shard < 0 || info.Shard > 1 || info.Tenant != "web" {
		t.Fatalf("submit info %+v", info)
	}
	got := pollTerminal(t, ts, info.ID)
	if want := serve.ExpectedChecksum("reduce", 4096); got.State != "done" || got.Checksum != want {
		t.Fatalf("job ended %s/%s checksum %v, want done with %v", got.State, got.Reason, got.Checksum, want)
	}
}

// TestRouterHTTPSaturationCarriesRetryAfter: a full shard queue answers
// 429 with both the Retry-After header and retry_after_ms.
func TestRouterHTTPSaturationCarriesRetryAfter(t *testing.T) {
	r, ts := routerHTTP(t, Config{Shards: 1, Serve: serve.Config{Workers: 1, QueueCap: 1, MaxConcurrent: 1}})
	blocker, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitRunning(t, r, blocker.ID())
	if _, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10}); err != nil {
		t.Fatalf("Submit filler: %v", err)
	}
	status, hdr, raw := call(t, http.MethodPost, ts.URL+"/jobs", `{"kernel":"reduce","n":1024}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit status %d body %s, want 429", status, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var body struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(raw, &body); err != nil || body.RetryAfterMS <= 0 {
		t.Fatalf("429 body %s: retry_after_ms must be > 0", raw)
	}
	r.Cancel(blocker.ID())
}

// TestRouterHTTPErrorsMatchServe: bad requests answer 400 with the same
// bytes a bare serve.Handler sends, and unknown IDs answer 404.
func TestRouterHTTPErrorsMatchServe(t *testing.T) {
	_, rts := routerHTTP(t, Config{Shards: 1, Serve: serve.Config{Workers: 1}})
	s := serve.New(serve.Config{Workers: 1})
	sts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { sts.Close(); s.Close() })

	for _, body := range []string{`{not json`, `{"kernel":"nope","n":10}`, `{"kernel":"reduce","n":0}`} {
		rs, _, rraw := call(t, http.MethodPost, rts.URL+"/jobs", body)
		ss, _, sraw := call(t, http.MethodPost, sts.URL+"/jobs", body)
		if rs != http.StatusBadRequest || ss != http.StatusBadRequest {
			t.Fatalf("POST %s: router %d, serve %d, want 400 both", body, rs, ss)
		}
		if !bytes.Equal(rraw, sraw) {
			t.Fatalf("POST %s: router body %q != serve body %q", body, rraw, sraw)
		}
	}
	rs, _, rraw := call(t, http.MethodGet, rts.URL+"/jobs/job-999", "")
	ss, _, sraw := call(t, http.MethodGet, sts.URL+"/jobs/job-999", "")
	if rs != http.StatusNotFound || ss != http.StatusNotFound || !bytes.Equal(rraw, sraw) {
		t.Fatalf("GET unknown: router %d %q, serve %d %q, want identical 404s", rs, rraw, ss, sraw)
	}
	if status, _, raw := call(t, http.MethodDelete, rts.URL+"/jobs/job-999", ""); status != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d body %s, want 404", status, raw)
	}
}

// TestRouterHTTPHealthzAfterClose: a closed router is not ready.
func TestRouterHTTPHealthzAfterClose(t *testing.T) {
	r, ts := routerHTTP(t, Config{Shards: 1, Serve: serve.Config{Workers: 1}})
	if status, _, raw := call(t, http.MethodGet, ts.URL+"/healthz", ""); status != http.StatusOK {
		t.Fatalf("open healthz status %d body %s, want 200", status, raw)
	}
	r.Close()
	if status, _, raw := call(t, http.MethodGet, ts.URL+"/healthz", ""); status != http.StatusServiceUnavailable {
		t.Fatalf("closed healthz status %d body %s, want 503", status, raw)
	}
}

// TestRouterHTTPPastAbsoluteDeadline: deadline_unix_ms reaches the shard
// through the router, so a job whose absolute deadline already passed
// expires in the queue instead of running.
func TestRouterHTTPPastAbsoluteDeadline(t *testing.T) {
	r, ts := routerHTTP(t, Config{Shards: 1, Serve: serve.Config{Workers: 1, QueueCap: 8, MaxConcurrent: 1}})
	blocker, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitRunning(t, r, blocker.ID())
	past := time.Now().Add(-time.Second).UnixMilli()
	status, _, raw := call(t, http.MethodPost, ts.URL+"/jobs", fmt.Sprintf(`{"kernel":"reduce","n":1024,"deadline_unix_ms":%d}`, past))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d body %s, want 202", status, raw)
	}
	var info JobInfo
	json.Unmarshal(raw, &info)
	if got := pollTerminal(t, ts, info.ID); got.State != "canceled" || got.Reason != "deadline" {
		t.Fatalf("past-deadline job ended %s/%s, want canceled/deadline", got.State, got.Reason)
	}
	r.Cancel(blocker.ID())
}

// TestRouterHTTPNoLiveShards: with every shard dead, submit answers 503
// like /healthz does — the tier cannot take work, the request is fine.
func TestRouterHTTPNoLiveShards(t *testing.T) {
	r, ts := routerHTTP(t, Config{Shards: 2, Serve: serve.Config{Workers: 1}})
	r.MarkDead(0)
	r.MarkDead(1)
	status, _, raw := call(t, http.MethodPost, ts.URL+"/jobs", `{"kernel":"reduce","n":1024}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit with no live shard: status %d body %s, want 503", status, raw)
	}
	if status, _, raw := call(t, http.MethodGet, ts.URL+"/healthz", ""); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no live shard: status %d body %s, want 503", status, raw)
	}
}
