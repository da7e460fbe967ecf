package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/core"
)

// TestRetainDoneBoundsJobsMap is the regression test for the unbounded
// finished-job map: a daemon that has served 10x RetainDone jobs must hold
// at most RetainDone terminal records, with the oldest evicted first and
// Get on an evicted ID reporting not-found — the documented
// QueueCap + MaxConcurrent + RetainDone memory bound.
func TestRetainDoneBoundsJobsMap(t *testing.T) {
	const retain = 8
	s := newTestServer(t, Config{RetainDone: retain, QueueCap: 128})
	var ids []string
	for i := 0; i < 10*retain; i++ {
		j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 8})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitJob(t, j)
		ids = append(ids, j.ID())
	}
	s.mu.Lock()
	live := len(s.jobs)
	s.mu.Unlock()
	if live > retain {
		t.Fatalf("jobs map holds %d records after %d jobs, want <= %d", live, len(ids), retain)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatalf("oldest job %s still queryable after eviction", ids[0])
	}
	if _, ok := s.Get(ids[len(ids)-1]); !ok {
		t.Fatalf("newest job %s evicted", ids[len(ids)-1])
	}
}

// TestRetainDoneNeverEvictsLiveJobs: queued and running jobs stay
// queryable no matter how many terminal records cycle through the ring.
func TestRetainDoneNeverEvictsLiveJobs(t *testing.T) {
	s := newTestServer(t, Config{RetainDone: 1, QueueCap: 16, MaxConcurrent: 1})
	blocker, err := s.Submit(Spec{Kernel: "sort", N: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Spec{Kernel: "sort", N: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Churn terminal records past the ring size via cancellations.
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(queued.ID()); !ok {
		t.Fatal("queued job evicted by terminal churn")
	}
	if _, ok := s.Get(blocker.ID()); !ok {
		t.Fatal("running job evicted by terminal churn")
	}
	waitJob(t, blocker)
	waitJob(t, queued)
}

// TestRetiredJobReleasesBody pins that a retained terminal record does not
// keep its Fn body reachable: the 1 MiB slice an Fn job's closure captures
// (as a streaming window's closure captures its events) is collected once
// the caller drops it, while the record still reports done with its
// checksum.
func TestRetiredJobReleasesBody(t *testing.T) {
	s := newTestServer(t, Config{})
	var freed atomic.Bool
	submit := func() *Job {
		buf := make([]float64, 1<<17)
		buf[len(buf)-1] = 42
		runtime.SetFinalizer(&buf[0], func(*float64) { freed.Store(true) })
		j, err := s.Submit(Spec{Kernel: "custom", N: len(buf), Tenant: "w",
			Fn: func(core.Policy) float64 { return buf[len(buf)-1] }})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j := submit()
	waitJob(t, j)
	runtime.GC()
	for deadline := time.Now().Add(time.Second); !freed.Load() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
	if !freed.Load() {
		t.Fatal("the retained job record keeps its Fn's captures reachable")
	}
	if info := s.Info(j); info.State != "done" || info.Checksum != 42 {
		t.Fatalf("retired job reads %s with checksum %v, want done with 42", info.State, info.Checksum)
	}
}

// TestCloseDrainsWithoutServiceClockLeak is the regression test for the
// shutdown leak: draining the queue through Pop inserted every never-run
// job into the in-service map with no paired Done, and advanced the virtual
// clock for jobs that never ran. After Close both must be clean.
func TestCloseDrainsWithoutServiceClockLeak(t *testing.T) {
	s := New(Config{Workers: 4, MaxConcurrent: 2, QueueCap: 32})
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(Spec{Kernel: "sort", N: 1 << 21, Tenant: fmt.Sprintf("t%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	virtualBefore := s.q.virtual
	s.mu.Unlock()
	s.Close()
	if n := len(s.q.inService); n != 0 {
		t.Fatalf("inService holds %d entries after Close, want 0", n)
	}
	// Running jobs legitimately advanced the clock before Close was called;
	// the drained backlog must not have advanced it further: every queued
	// entry's start tag is >= the pre-Close clock, so any advance here could
	// only come from billing never-run jobs.
	if s.q.virtual != virtualBefore {
		t.Fatalf("virtual clock moved %v -> %v during shutdown drain", virtualBefore, s.q.virtual)
	}
}

// TestInServiceBoundedByMaxConcurrent: every dispatched job leaves the
// fair queue's in-service set when it finishes — completed, canceled while
// running or expired by its deadline — so after any job finishes the set
// holds exactly the running jobs, never more than MaxConcurrent, and it is
// empty after Close.
func TestInServiceBoundedByMaxConcurrent(t *testing.T) {
	for _, maxc := range []int{1, 2} {
		t.Run(fmt.Sprintf("max%d", maxc), func(t *testing.T) {
			s := New(Config{Workers: 2, MaxConcurrent: maxc, QueueCap: 64})
			check := func(when string) {
				t.Helper()
				s.mu.Lock()
				n, running := len(s.q.inService), s.running
				s.mu.Unlock()
				if n > maxc || n != running {
					t.Fatalf("%s: inService holds %d entries with %d running, want them equal and <= %d",
						when, n, running, maxc)
				}
			}
			var jobs []*Job
			for i := 0; i < 48; i++ {
				spec := Spec{Kernel: "sort", N: 1 << 14, Tenant: fmt.Sprintf("t%d", i%3)}
				switch i % 4 {
				case 1:
					spec.Kernel = "reduce"
				case 2:
					// Expires queued or mid-run, depending on the backlog.
					spec.N, spec.Deadline = 1<<16, 2*time.Millisecond
				}
				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				if i%5 == 3 {
					// An earlier job: queued, running or already done.
					if _, err := s.Cancel(jobs[i/2].ID()); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, j := range jobs {
				select {
				case <-j.Done():
				case <-time.After(30 * time.Second):
					t.Fatalf("job %s did not finish", j.ID())
				}
				check("after " + j.ID() + " finished")
			}
			// Close with jobs running and queued.
			for i := 0; i < 8; i++ {
				if _, err := s.Submit(Spec{Kernel: "sort", N: 1 << 16, Tenant: "late"}); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if n := len(s.q.inService); n != 0 || s.running != 0 {
				t.Fatalf("after Close: inService holds %d entries with %d running, want 0 and 0", n, s.running)
			}
		})
	}
}

// TestRetryAfterClamped is the regression test for the uncapped
// Retry-After hint: with a service-time EMA inflated by one slow job and a
// deep backlog, the hint must still be clamped to 30s.
func TestRetryAfterClamped(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		s := newTestServer(t, Config{QueueCap: 4, MaxConcurrent: 1})
		// Fill the slot and the queue with slow jobs.
		for i := 0; i < 5; i++ {
			if _, err := s.Submit(Spec{Kernel: "sort", N: 1 << 19}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		// One pathologically slow observed job: an unclamped hint would quote
		// hours for this backlog.
		s.mu.Lock()
		s.emaRun = 3600
		s.mu.Unlock()
		_, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 10})
		var sat *SaturatedError
		if !errors.As(err, &sat) {
			t.Fatalf("submit on full queue: %v, want SaturatedError", err)
		}
		if want := 30 * time.Second; sat.RetryAfter <= 0 || sat.RetryAfter > want {
			t.Fatalf("RetryAfter = %v, want in (0, %v]", sat.RetryAfter, want)
		}
	})
}

// TestTenantQuota: a tenant at its queued-job quota is rejected while the
// global queue still has room and other tenants keep flowing.
func TestTenantQuota(t *testing.T) {
	s := newTestServer(t, Config{
		QueueCap:      32,
		MaxConcurrent: 1,
		TenantQuota:   2,
	})
	// Blocker occupies the slot so submissions queue.
	if _, err := s.Submit(Spec{Kernel: "sort", N: 1 << 20, Tenant: "block"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 18, Tenant: "flood"}); err != nil {
			t.Fatalf("flood submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 18, Tenant: "flood"})
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("over-quota submit: %v, want SaturatedError", err)
	}
	// Another tenant is unaffected.
	if _, err := s.Submit(Spec{Kernel: "reduce", N: 1 << 18, Tenant: "calm"}); err != nil {
		t.Fatalf("calm tenant rejected: %v", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

// TestWithdrawQueued: withdrawn jobs leave the queue, the jobs map, and
// the tenant counters untouched, carrying reason "migrated" — and the
// fair-queue state stays clean enough that the server keeps serving.
func TestWithdrawQueued(t *testing.T) {
	s := newTestServer(t, Config{QueueCap: 16, MaxConcurrent: 2})
	blocker, err := s.Submit(Spec{Kernel: "sort", N: 1 << 20, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Spec{Kernel: "sort", N: 1 << 20, Tenant: "a"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	got := s.WithdrawQueued(2)
	if len(got) != 2 {
		t.Fatalf("withdrew %d jobs, want 2", len(got))
	}
	for _, j := range got {
		select {
		case <-j.Done():
		default:
			t.Fatalf("withdrawn job %s not terminal", j.ID())
		}
		info := s.Info(j)
		if info.State != "canceled" || info.Reason != "migrated" {
			t.Fatalf("withdrawn job %s: %s/%s", j.ID(), info.State, info.Reason)
		}
		if info.Kernel != "sort" || info.Tenant != "a" {
			t.Fatalf("withdrawn job %s: kernel %q tenant %q", j.ID(), info.Kernel, info.Tenant)
		}
		if _, ok := s.Get(j.ID()); ok {
			t.Fatalf("withdrawn job %s still in the jobs map", j.ID())
		}
	}
	st := s.Stats()
	if st.Withdrawn != 2 {
		t.Fatalf("withdrawn counter = %d, want 2", st.Withdrawn)
	}
	if st.Canceled != 0 {
		t.Fatalf("withdrawals billed as cancels: canceled = %d", st.Canceled)
	}
	waitJob(t, blocker)
	for _, j := range queued {
		waitJob(t, j)
	}
	if n := len(s.q.inService); n != 0 {
		t.Fatalf("inService holds %d entries after drain", n)
	}
}
