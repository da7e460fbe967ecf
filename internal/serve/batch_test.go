package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submitBlocker occupies the single concurrency slot long enough for small
// jobs to pile up behind it, so drainLocked sees a coalescible queue.
func submitBlocker(t testing.TB, s *Server, n int) *Job {
	t.Helper()
	j, err := s.Submit(Spec{Kernel: "sort", N: n, Tenant: "blocker"})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	return j
}

// TestBatchedDispatchCorrectness piles small same-tenant jobs behind a
// running blocker and checks they are dispatched in batches with every
// per-job checksum intact.
func TestBatchedDispatchCorrectness(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 4, MaxConcurrent: 1, QueueCap: 128,
		SmallJobMax: 1 << 14,
	})
	blocker := submitBlocker(t, s, 1<<19)
	const n = 1 << 10
	var jobs []*Job
	for i := 0; i < 32; i++ {
		j, err := s.Submit(Spec{Kernel: "reduce", N: n, Tenant: "small"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	waitJob(t, blocker)
	for i, j := range jobs {
		waitJob(t, j)
		info := s.Info(j)
		if info.State != "done" {
			t.Fatalf("job %d: state %s (%s), want done", i, info.State, info.Reason)
		}
		if want := ExpectedChecksum("reduce", n); info.Checksum != want {
			t.Fatalf("job %d: checksum %v, want %v", i, info.Checksum, want)
		}
	}
	st := s.Stats()
	if st.Batches == 0 || st.BatchedJobs < 8 {
		t.Fatalf("expected batched dispatch, got batches=%d batchedJobs=%d",
			st.Batches, st.BatchedJobs)
	}
}

// Batching must not cross tenants or the size threshold: a large job and a
// foreign tenant queued between small jobs run solo.
func TestBatchRespectsTenantAndSize(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 4, MaxConcurrent: 1, QueueCap: 128,
		SmallJobMax: 1 << 10,
	})
	blocker := submitBlocker(t, s, 1<<19)
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, _ := s.Submit(Spec{Kernel: "reduce", N: 512, Tenant: "a"})
		jobs = append(jobs, j)
	}
	big, _ := s.Submit(Spec{Kernel: "reduce", N: 1 << 15, Tenant: "a"})
	other, _ := s.Submit(Spec{Kernel: "reduce", N: 512, Tenant: "b"})
	jobs = append(jobs, big, other)
	waitJob(t, blocker)
	for _, j := range jobs {
		waitJob(t, j)
		if info := s.Info(j); info.State != "done" {
			t.Fatalf("job %s: state %s, want done", j.ID(), info.State)
		}
	}
	st := s.Stats()
	// The six tenant-a small jobs batch (possibly split); big and tenant-b
	// small (alone at its dispatch) run solo.
	if st.BatchedJobs > 6 {
		t.Fatalf("batched %d jobs, only 6 were coalescible", st.BatchedJobs)
	}
	if st.Completed != int64(len(jobs))+1 {
		t.Fatalf("completed %d, want %d", st.Completed, len(jobs)+1)
	}
}

// Canceling a job that is queued inside a would-be batch, or already
// batched and waiting for its task to start, must finalize it as canceled
// without running it — and must not disturb its batch-mates.
func TestBatchedCancelSemantics(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 4, MaxConcurrent: 1, QueueCap: 128,
		SmallJobMax: 1 << 12,
	})
	blocker := submitBlocker(t, s, 1<<19)
	var jobs []*Job
	for i := 0; i < 16; i++ {
		j, err := s.Submit(Spec{Kernel: "scan", N: 1 << 10, Tenant: "small"})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	// Cancel every third while still queued behind the blocker.
	for i := 0; i < len(jobs); i += 3 {
		if _, err := s.Cancel(jobs[i].ID()); err != nil {
			t.Fatalf("cancel: %v", err)
		}
	}
	waitJob(t, blocker)
	for i, j := range jobs {
		waitJob(t, j)
		info := s.Info(j)
		if i%3 == 0 {
			if info.State != "canceled" {
				t.Fatalf("job %d: state %s, want canceled", i, info.State)
			}
		} else if info.State != "done" {
			t.Fatalf("job %d: state %s (%s), want done", i, info.State, info.Reason)
		} else if want := ExpectedChecksum("scan", 1<<10); info.Checksum != want {
			t.Fatalf("job %d: checksum %v, want %v", i, info.Checksum, want)
		}
	}
}

// TestBatchedSubmitCancelStress is the -race target for the batched path:
// many clients flooding small same-tenant jobs with concurrent cancels and
// deadlines, batching enabled, multiple slots. Done checksums must always
// validate.
func TestBatchedSubmitCancelStress(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 4, MaxConcurrent: 2, QueueCap: 64,
		SmallJobMax: 1 << 13,
	})
	const clients = 8
	iters := 30
	if testing.Short() {
		iters = 8
	}
	var torn atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < iters; i++ {
				n := 1 << (8 + rng.Intn(5)) // 256 .. 4096: all below SmallJobMax
				spec := Spec{Kernel: "reduce", N: n, Tenant: []string{"a", "b"}[c%2]}
				if rng.Intn(5) == 0 {
					spec.Deadline = time.Duration(rng.Intn(2)) * time.Millisecond
				}
				j, err := s.Submit(spec)
				if err != nil {
					var sat *SaturatedError
					if errors.As(err, &sat) {
						time.Sleep(time.Millisecond)
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				if rng.Intn(3) == 0 {
					if _, err := s.Cancel(j.ID()); err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
				}
				<-j.Done()
				info := s.Info(j)
				if info.State == "done" && info.Checksum != ExpectedChecksum("reduce", n) {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if v := torn.Load(); v != 0 {
		t.Fatalf("%d done jobs had torn checksums", v)
	}
}

// BenchmarkBatchedDispatch measures per-job overhead for a flood of small
// jobs with batching off vs on — the serve half of the dispatch
// amortization claim. Picked up by the CI bench-smoke step.
func BenchmarkBatchedDispatch(b *testing.B) {
	run := func(b *testing.B, smallMax int) {
		s := New(Config{
			Workers: 4, MaxConcurrent: 1, QueueCap: 4096,
			SmallJobMax: smallMax,
		})
		defer s.Close()
		const jobs = 256
		const n = 1 << 12
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			// A short blocker lets the queue fill so dispatch decisions — not
			// the blocker — are what the timed region measures.
			b.StopTimer()
			hold := submitBlocker(b, s, 1<<15)
			batch := make([]*Job, 0, jobs)
			for i := 0; i < jobs; i++ {
				j, err := s.Submit(Spec{Kernel: "reduce", N: n, Tenant: "t"})
				if err != nil {
					b.Fatalf("submit: %v", err)
				}
				batch = append(batch, j)
			}
			<-hold.Done()
			b.StartTimer()
			for _, j := range batch {
				<-j.Done()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
	}
	b.Run("individual", func(b *testing.B) { run(b, 0) })
	b.Run("batched", func(b *testing.B) { run(b, 1<<14) })
}
