package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/native"
	"pstlbench/internal/obs"
	"pstlbench/internal/trace"
)

// TestWindowedQuantilesLoadStep drives the end-to-end satellite guarantee
// through the server: a latency step (fast jobs, then jobs stuck behind a
// blocker) moves the windowed p99 in Stats within two windows, and ages
// out once the horizon passes — while the cumulative p99 still remembers.
func TestWindowedQuantilesLoadStep(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	cfg := Config{
		MaxConcurrent: 1,
		WindowWidth:   time.Second,
		WindowCount:   4,
		windowNow:     clock.Load,
	}
	s := newTestServer(t, cfg)

	for i := 0; i < 20; i++ {
		j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10, Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
	}
	before := tenantOf(t, s, "acme")
	if before.WindowJobs != 20 {
		t.Fatalf("window jobs = %d, want 20", before.WindowJobs)
	}

	// The step, one window later: a heavy blocker occupies the single run
	// slot, so the fast jobs behind it inherit its runtime as queue wait.
	clock.Add(int64(time.Second))
	blocker, err := s.Submit(Spec{Kernel: "sort", N: 1 << 21, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	var victims []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10, Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, j)
	}
	waitJob(t, blocker)
	for _, j := range victims {
		waitJob(t, j)
	}
	clock.Add(int64(time.Second)) // second window boundary after the step
	after := tenantOf(t, s, "acme")
	if after.WindowP99Seconds <= before.WindowP99Seconds*2 {
		t.Fatalf("windowed p99 %v -> %v: step not visible within two windows",
			before.WindowP99Seconds, after.WindowP99Seconds)
	}

	// Past the horizon the windowed view forgets; the cumulative view must
	// not — that contrast is the whole reason both exist.
	clock.Add(int64(cfg.WindowCount+1) * int64(time.Second))
	gone := tenantOf(t, s, "acme")
	if gone.WindowJobs != 0 {
		t.Fatalf("window jobs past horizon = %d, want 0", gone.WindowJobs)
	}
	if gone.P99Seconds <= 0 {
		t.Fatal("cumulative p99 vanished with the window")
	}
	if gone.WindowP99Seconds != 0 {
		t.Fatalf("windowed p99 past horizon = %v, want 0", gone.WindowP99Seconds)
	}
}

// TestCumulativeMatchesWindowWithinHorizon: the cumulative and windowed
// /stats quantiles read one instrument family through one estimator, so
// while every completion is still inside the rolling horizon they must
// agree exactly — a second estimator would show up here as a mismatch.
func TestCumulativeMatchesWindowWithinHorizon(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	s := newTestServer(t, Config{MaxConcurrent: 1, windowNow: clock.Load})
	for i := 0; i < 24; i++ {
		// Mixed sizes spread the latencies over several buckets.
		j, err := s.Submit(Spec{Kernel: "sort", N: 1 << (8 + i%8), Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
	}
	ts := tenantOf(t, s, "acme")
	if ts.WindowJobs != ts.Completed || ts.Completed != 24 {
		t.Fatalf("window jobs %d, completed %d, want 24 each", ts.WindowJobs, ts.Completed)
	}
	if ts.P50Seconds <= 0 || ts.P99Seconds < ts.P50Seconds {
		t.Fatalf("cumulative p50=%v p99=%v", ts.P50Seconds, ts.P99Seconds)
	}
	if ts.P50Seconds != ts.WindowP50Seconds || ts.P99Seconds != ts.WindowP99Seconds {
		t.Fatalf("cumulative p50/p99 %v/%v != windowed %v/%v",
			ts.P50Seconds, ts.P99Seconds, ts.WindowP50Seconds, ts.WindowP99Seconds)
	}
}

func tenantOf(t *testing.T, s *Server, name string) TenantStats {
	t.Helper()
	for _, ts := range s.Stats().Tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("tenant %s missing from stats", name)
	return TenantStats{}
}

// TestSLOBurnRateInStats: with an objective no job can meet, the burn rate
// must exceed the budget-exhausting threshold.
func TestSLOBurnRateInStats(t *testing.T) {
	s := newTestServer(t, Config{SLOObjective: time.Nanosecond, SLOTarget: 0.9})
	for i := 0; i < 5; i++ {
		j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 12, Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
	}
	ts := tenantOf(t, s, "acme")
	if ts.SLOSeconds == 0 {
		t.Fatal("SLO objective missing from tenant stats")
	}
	// Every job violates a 1ns objective: bad fraction 1.0 over budget 0.1.
	if ts.BurnRate < 5 {
		t.Fatalf("burn rate = %v, want ~10 with every job violating", ts.BurnRate)
	}
}

// TestJobSpanLifecycle checks the span a completed job leaves behind:
// ordered phase stamps through the whole path, including the first-chunk
// stamp CASed in by the pool dispatch.
func TestJobSpanLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Spans: obs.NewSpanLog(16)})
	j, err := s.Submit(Spec{Kernel: "sort", N: 1 << 15, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	spans := s.SpanLog().Spans()
	if len(spans) != 1 {
		t.Fatalf("span log holds %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.ID != j.ID() || sp.Tenant != "acme" || sp.Kernel != "sort" {
		t.Fatalf("span identity = %s %s/%s", sp.ID, sp.Tenant, sp.Kernel)
	}
	order := []obs.Phase{obs.PhaseAdmitted, obs.PhaseEnqueued, obs.PhaseDequeued,
		obs.PhaseStarted, obs.PhaseFirstChunk, obs.PhaseCompleted}
	last := int64(0)
	for _, p := range order {
		ns := sp.At(p)
		if ns == 0 {
			t.Fatalf("phase %s never stamped", p)
		}
		if ns < last {
			t.Fatalf("phase %s stamped before its predecessor", p)
		}
		last = ns
	}
	if sp.TotalSeconds() <= 0 {
		t.Fatal("total seconds not positive")
	}
}

// TestCanceledSpanCarriesCancelPhase: a job canceled while queued retires
// with the canceled phase and no started stamp.
func TestCanceledSpanCarriesCancelPhase(t *testing.T) {
	s := newTestServer(t, Config{Spans: obs.NewSpanLog(16), MaxConcurrent: 1})
	blocker, err := s.Submit(Spec{Kernel: "sort", N: 1 << 21, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitJob(t, queued)
	waitJob(t, blocker)

	var sp *obs.JobSpan
	for _, c := range s.SpanLog().Spans() {
		if c.ID == queued.ID() {
			sp = c
		}
	}
	if sp == nil {
		t.Fatal("canceled job left no span")
	}
	if sp.At(obs.PhaseCanceled) == 0 {
		t.Fatal("canceled span missing the canceled phase")
	}
	if _, ok := sp.Phases()["canceled"]; !ok {
		t.Fatal("canceled phase missing from the serialized phase map")
	}
	if sp.At(obs.PhaseStarted) != 0 {
		t.Fatal("queued-then-canceled job claims it started")
	}
	if sp.QueueSeconds() <= 0 {
		t.Fatal("canceled-in-queue span shows no queue wait")
	}
}

// TestChromeExportNestsJobsOverChunks is the end-to-end export check: real
// jobs through a real server on a traced pool produce a Chrome trace where
// the jobs track sits after the tracer's tracks and each job interval
// contains the pool's own chunk spans from the same timeline — and a
// canceled job rides along with its cancel phase in the args.
func TestChromeExportNestsJobsOverChunks(t *testing.T) {
	tr := trace.New(3, 4096) // two workers + the submitting caller
	pool := native.NewTraced(2, native.StrategyStealing, native.Topology{}, tr)
	t.Cleanup(pool.Close) // registered first, so it runs after the server's Close
	s := newTestServer(t, Config{Pool: pool, Spans: obs.NewSpanLog(64), MaxConcurrent: 1})
	j, err := s.Submit(Spec{Kernel: "sort", N: 1 << 16, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(victim.ID())
	waitJob(t, j)
	waitJob(t, victim)

	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, tr, s.SpanLog()); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	tracks, labels := ct.Tracks()
	jobsTid := tr.Tracks()
	if len(labels) <= jobsTid || labels[jobsTid] != "jobs" {
		t.Fatalf("labels = %v, want a jobs track at tid %d (after the tracer's)", labels, jobsTid)
	}
	if len(tracks[jobsTid]) == 0 {
		t.Fatal("jobs track is empty")
	}

	// Parent/child: the completed job's span must contain at least one of
	// the pool's chunk spans on a lower track within its [start, end].
	var jobStart, jobEnd float64
	foundJob, foundCanceled := false, false
	for _, e := range ct.TraceEvents {
		if e.Tid != jobsTid || e.Ph != "X" {
			continue
		}
		switch e.Args["terminal"] {
		case "completed":
			jobStart, jobEnd = e.Ts, e.Ts+e.Dur
			foundJob = true
		case "canceled":
			foundCanceled = true
		}
	}
	if !foundJob {
		t.Fatal("completed job has no X event on the jobs track")
	}
	if !foundCanceled {
		t.Fatal("canceled job missing from the jobs track")
	}
	nested := false
	for _, e := range ct.TraceEvents {
		if e.Tid < jobsTid && e.Name == "chunk" && e.Ts >= jobStart && e.Ts+e.Dur <= jobEnd {
			nested = true
			break
		}
	}
	if !nested {
		t.Fatal("no pool chunk span nests inside the job span interval")
	}
}

// TestMetricsAndSpansEndpoints scrapes the real HTTP surface: /metrics
// must serve parseable Prometheus text carrying the acceptance families,
// and /spans a JSON array of terminal span records.
func TestMetricsAndSpansEndpoints(t *testing.T) {
	s, ts := httpServer(t, Config{
		Metrics: obs.NewRegistry(),
		Spans:   obs.NewSpanLog(16),
	})
	j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 12, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE pstld_queue_depth gauge",
		"pstld_queue_depth 0",
		"# TYPE pstld_job_latency_seconds histogram",
		`pstld_job_latency_seconds_bucket{tenant="acme",le="+Inf"} 1`,
		"# TYPE pstld_window_latency_seconds histogram",
		`pstld_window_latency_seconds_count{tenant="acme"} 1`,
		"pstld_jobs_completed_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Line-level format check: every sample line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed /metrics line %q", line)
		}
	}

	sresp, err := http.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var infos []obs.SpanInfo
	if err := json.NewDecoder(sresp.Body).Decode(&infos); err != nil {
		t.Fatalf("/spans not a JSON array: %v", err)
	}
	if len(infos) != 1 || infos[0].ID != j.ID() || infos[0].Phases["completed"] == 0 {
		t.Fatalf("/spans = %+v, want the completed job's span", infos)
	}
}
