package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

func TestSubmitRunsEveryKernel(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 1 << 14
	for _, k := range Kernels() {
		j, err := s.Submit(Spec{Kernel: k, N: n, Tenant: "t"})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		waitJob(t, j)
		info := s.Info(j)
		if info.State != "done" {
			t.Fatalf("%s: state %s (%s), want done", k, info.State, info.Reason)
		}
		if want := ExpectedChecksum(k, n); info.Checksum != want {
			t.Fatalf("%s: checksum %v, want %v", k, info.Checksum, want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(Spec{Kernel: "frobnicate", N: 10}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := s.Submit(Spec{Kernel: "reduce", N: 0}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestAdmissionControl fills the queue and checks saturation is reported
// with a retry hint instead of queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{QueueCap: 2, MaxConcurrent: 1})
	// One long job occupies the slot; two fill the queue.
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(Spec{Kernel: "sort", N: 1 << 19, Tenant: "a"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	_, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10, Tenant: "b"})
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("4th submit: %v, want SaturatedError", err)
	}
	if sat.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", sat.RetryAfter)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Accepted != 3 {
		t.Fatalf("accepted/rejected = %d/%d, want 3/1", st.Accepted, st.Rejected)
	}
	for _, j := range jobs {
		waitJob(t, j)
	}
	// Capacity freed: submissions flow again.
	j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10, Tenant: "b"})
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	waitJob(t, j)
}

// TestCancelQueuedJob withdraws a job before it ever runs.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	blocker, err := s.Submit(Spec{Kernel: "sort", N: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Cancel(victim.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "canceled" || info.Reason != "canceled" {
		t.Fatalf("canceled queued job: %s/%s", info.State, info.Reason)
	}
	waitJob(t, victim) // done channel must be closed
	waitJob(t, blocker)
	if got := s.Stats().Canceled; got != 1 {
		t.Fatalf("canceled count = %d, want 1", got)
	}
}

// TestCancelRunningJobFreesWorkers cancels a large running job and checks
// the pool is free for the next job promptly — the workers abandoned the
// canceled job at a chunk boundary rather than finishing it.
func TestCancelRunningJobFreesWorkers(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	big, err := s.Submit(Spec{Kernel: "foreach", N: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	// Let it start.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info := s.Info(big); info.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("big job never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := s.Cancel(big.ID()); err != nil {
		t.Fatal(err)
	}
	waitJob(t, big)
	info := s.Info(big)
	if info.State != "canceled" {
		t.Fatalf("state %s, want canceled", info.State)
	}
	small, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, small)
	if got := s.Info(small); got.State != "done" {
		t.Fatalf("job after cancel: %s", got.State)
	}
}

// TestDeadlineExpiresQueuedAndRunning covers both deadline paths.
func TestDeadlineExpiresQueuedAndRunning(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	// Blocker keeps the slot busy well past the victim's deadline.
	blocker, err := s.Submit(Spec{Kernel: "sort", N: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	queuedVictim, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 22, Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, queuedVictim)
	if info := s.Info(queuedVictim); info.State != "canceled" || info.Reason != "deadline" {
		t.Fatalf("queued victim: %s/%s, want canceled/deadline", info.State, info.Reason)
	}
	waitJob(t, blocker)

	runningVictim, err := s.Submit(Spec{Kernel: "foreach", N: 1 << 22, Deadline: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, runningVictim)
	info := s.Info(runningVictim)
	// Small machines may finish 4M elements inside 2ms; accept done, but a
	// canceled outcome must carry the deadline reason.
	if info.State == "canceled" && info.Reason != "deadline" {
		t.Fatalf("running victim: %s/%s, want reason deadline", info.State, info.Reason)
	}
	if s.Stats().Expired < 1 {
		t.Fatal("expired counter never incremented")
	}
}

// TestPerTenantStatsIsolation: each tenant's latency region and counters
// are its own.
func TestPerTenantStatsIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	tenants := []string{"alpha", "beta"}
	for _, tn := range tenants {
		for i := 0; i < 3; i++ {
			j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 16, Tenant: tn})
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j)
		}
	}
	st := s.Stats()
	if len(st.Tenants) != 2 {
		t.Fatalf("tenant rows = %d, want 2", len(st.Tenants))
	}
	for _, ts := range st.Tenants {
		if ts.Completed != 3 {
			t.Fatalf("tenant %s completed = %d, want 3", ts.Tenant, ts.Completed)
		}
		if ts.P50Seconds <= 0 || ts.P99Seconds < ts.P50Seconds {
			t.Fatalf("tenant %s quantiles p50=%v p99=%v", ts.Tenant, ts.P50Seconds, ts.P99Seconds)
		}
	}
}

// TestSharedPoolNotClosed: a server on a caller-owned pool must leave it
// open on Close.
func TestSharedPoolNotClosed(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	s := New(Config{Pool: pool})
	j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	s.Close()
	// The pool still works.
	var sum atomic.Int64
	pool.ForChunks(1000, exec.Fine, func(_, lo, hi int) { sum.Add(int64(hi - lo)) })
	if sum.Load() != 1000 {
		t.Fatal("shared pool unusable after server Close")
	}
	if _, err := s.Submit(Spec{Kernel: "reduce", N: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

// TestCloseCancelsBacklog: Close drains queued jobs as canceled/shutdown
// and waits for running ones.
func TestCloseCancelsBacklog(t *testing.T) {
	s := New(Config{Workers: 4, MaxConcurrent: 1})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Spec{Kernel: "sort", N: 1 << 19})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Close()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not terminal after Close", j.ID())
		}
	}
	shutdown := 0
	for _, j := range jobs {
		if info := s.Info(j); info.Reason == "shutdown" {
			shutdown++
		}
	}
	if shutdown == 0 {
		t.Fatal("no job carries the shutdown reason")
	}
}

// TestWFQEndToEndOrdering drives the server itself (not just the queue):
// with one slot busy, a heavy tenant's backlog queued, and a light job
// arriving last, the light job must be served before the backlog drains.
func TestWFQEndToEndOrdering(t *testing.T) {
	s := newTestServer(t, Config{Discipline: WFQ, MaxConcurrent: 1})
	var order []string
	var mu sync.Mutex
	noteDone := func(tag string, j *Job) {
		go func() {
			<-j.Done()
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}()
	}
	var all []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(Spec{Kernel: "sort", N: 1 << 19, Tenant: "heavy"})
		if err != nil {
			t.Fatal(err)
		}
		noteDone("heavy", j)
		all = append(all, j)
	}
	light, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 14, Tenant: "light"})
	if err != nil {
		t.Fatal(err)
	}
	noteDone("light", light)
	all = append(all, light)
	for _, j := range all {
		waitJob(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, tag := range order {
		if tag == "light" {
			pos = i
		}
	}
	// The light job may lose only to jobs already running or popped when
	// it arrived, never to the whole backlog.
	if pos < 0 || pos > 2 {
		t.Fatalf("light job finished at position %d of %v, want <= 2", pos, order)
	}
}
