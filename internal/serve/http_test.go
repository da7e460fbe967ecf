package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req SubmitRequest) (*http.Response, JobInfo) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return resp, info
}

func TestHTTPSubmitStatusLifecycle(t *testing.T) {
	srv, ts := httpServer(t, Config{})
	resp, info := postJob(t, ts, SubmitRequest{Kernel: "reduce", N: 1 << 16, Tenant: "web"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if info.ID == "" || info.Tenant != "web" {
		t.Fatalf("submit info %+v", info)
	}
	// Poll status until done.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobInfo
		json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if got.State == "done" {
			if want := ExpectedChecksum("reduce", 1<<16); got.Checksum != want {
				t.Fatalf("checksum %v, want %v", got.Checksum, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(time.Millisecond)
	}
	_ = srv
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := httpServer(t, Config{})
	resp, _ := postJob(t, ts, SubmitRequest{Kernel: "nope", N: 10})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kernel status %d, want 400", resp.StatusCode)
	}
	r, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", r.StatusCode)
	}
	g, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", g.StatusCode)
	}
}

// TestHTTPOversizedBodyRejected: a POST body past MaxBodyBytes is refused
// with 413 and the JSON error envelope, and never becomes a job.
func TestHTTPOversizedBodyRejected(t *testing.T) {
	srv, ts := httpServer(t, Config{})
	body, _ := json.Marshal(SubmitRequest{Kernel: "reduce", N: 1 << 10,
		Tenant: strings.Repeat("t", MaxBodyBytes)})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status %d, want 413", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body: %+v, %v; want the error envelope", e, err)
	}
	if st := srv.Stats(); st.Accepted != 0 {
		t.Fatalf("accepted %d jobs from an oversized body", st.Accepted)
	}
}

func TestHTTPSaturationCarriesRetryAfter(t *testing.T) {
	_, ts := httpServer(t, Config{QueueCap: 1, MaxConcurrent: 1})
	// Keep submitting until the slot plus the one-deep queue are full; the
	// server drains concurrently, so saturation shows up within a few
	// submissions rather than at a fixed count.
	var resp *http.Response
	for i := 0; i < 50; i++ {
		body, _ := json.Marshal(SubmitRequest{Kernel: "sort", N: 1 << 21})
		r, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusTooManyRequests {
			resp = r
			break
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d", i, r.StatusCode)
		}
	}
	if resp == nil {
		t.Fatal("never saturated after 50 submissions of a 1-deep queue")
	}
	defer resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", eb.RetryAfterMS)
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, ts := httpServer(t, Config{MaxConcurrent: 1})
	// A long blocker plus a queued victim to cancel.
	postJob(t, ts, SubmitRequest{Kernel: "sort", N: 1 << 21})
	_, victim := postJob(t, ts, SubmitRequest{Kernel: "reduce", N: 1 << 20})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", resp.StatusCode)
	}
	// If the blocker finished first the victim may have been running (or
	// even done) when the DELETE landed; a still-queued victim reports
	// canceled immediately, a running one once the token is observed.
	srv.mu.Lock()
	j := srv.jobs[victim.ID]
	srv.mu.Unlock()
	waitJob(t, j)
	info := srv.Info(j)
	if info.State != "canceled" && info.State != "done" {
		t.Fatalf("cancel state %s, want canceled (or done on a raced finish)", info.State)
	}
	if info.State == "done" {
		t.Logf("victim outran the cancel; covered deterministically in TestCancelQueuedJob")
	}
}

func TestHTTPStatsShape(t *testing.T) {
	_, ts := httpServer(t, Config{Discipline: WFQ})
	resp, _ := postJob(t, ts, SubmitRequest{Kernel: "reduce", N: 1 << 14, Tenant: "a"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	time.Sleep(50 * time.Millisecond)
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if st.Discipline != "wfq" || st.Workers != 4 || st.Accepted != 1 {
		t.Fatalf("stats %+v", st)
	}
}
