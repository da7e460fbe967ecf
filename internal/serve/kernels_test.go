package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runOne submits one job and waits for it, failing unless it ends done
// with checksum want.
func runOne(tb testing.TB, s *Server, kernel string, n int, want float64) {
	j, err := s.Submit(Spec{Kernel: kernel, N: n})
	if err != nil {
		tb.Fatal(err)
	}
	<-j.Done()
	if info := s.Info(j); info.State != "done" || info.Checksum != want {
		tb.Fatalf("%s n=%d: %s with checksum %v, want done with %v", kernel, n, info.State, info.Checksum, want)
	}
}

// TestJobInputAllocs pins what one in-process Submit→Done costs the heap
// at 2^16 for reduce and sort on 1- and 2-worker servers: the job's input
// comes from a pool, so a job allocates a few small records and no
// n-element buffer (8 n = 512 KiB per call before inputs were pooled).
func TestJobInputAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race's sync.Pool drops a random share of Puts")
	}
	const n = 1 << 16
	// Over 200 jobs one pool miss, which sync.Pool's per-P caches allow
	// now and then, adds 2.6 KiB per job: the bound holds unless misses
	// are the rule.
	const runs = 200
	// maxAllocs is the count per job before inputs were pooled.
	maxAllocs := map[string]float64{"1w/reduce": 7, "1w/sort": 7, "2w/reduce": 10, "2w/sort": 17}
	for _, w := range []int{1, 2} {
		s := newTestServer(t, Config{Workers: w})
		for _, k := range []string{"reduce", "sort"} {
			name := fmt.Sprintf("%dw/%s", w, k)
			t.Run(name, func(t *testing.T) {
				want := ExpectedChecksum(k, n)
				for range 5 {
					runOne(t, s, k, n, want)
				}
				allocs := testing.AllocsPerRun(runs, func() { runOne(t, s, k, n, want) })
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					runOne(t, s, k, n, want)
				}
				runtime.ReadMemStats(&after)
				bytes := (after.TotalAlloc - before.TotalAlloc) / runs
				t.Logf("%d allocs, %d B per job", int(allocs), bytes)
				if bytes >= 4<<10 {
					t.Errorf("a job allocates %d B, want < 4 KiB", bytes)
				}
				if allocs > maxAllocs[name] {
					t.Errorf("a job allocates %v times, want <= %v", allocs, maxAllocs[name])
				}
			})
		}
	}
}

// TestPooledInputsNeverAlias races mixed-kernel jobs of mixed sizes with
// random cancels on a 2-worker server running two jobs at once. Inputs
// return to their pool when a job ends, cancelled or not, so a buffer
// handed back while a chunk still ran would be refilled under a live job:
// every job that ends done must carry the oracle's checksum.
func TestPooledInputsNeverAlias(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, MaxConcurrent: 2, QueueCap: 64})
	sizes := []int{1 << 10, 1 << 13, 1 << 15}
	want := map[string]float64{}
	for _, k := range Kernels() {
		for _, n := range sizes {
			want[fmt.Sprint(k, n)] = ExpectedChecksum(k, n)
		}
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for range iters {
				k, n := Kernels()[rng.Intn(len(Kernels()))], sizes[rng.Intn(len(sizes))]
				j, err := s.Submit(Spec{Kernel: k, N: n, Tenant: fmt.Sprint("t", c)})
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(3) == 0 {
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					s.Cancel(j.ID())
				}
				<-j.Done()
				if info := s.Info(j); info.State == "done" {
					done.Add(1)
					if info.Checksum != want[fmt.Sprint(k, n)] {
						t.Errorf("%s n=%d: checksum %v, want %v", k, n, info.Checksum, want[fmt.Sprint(k, n)])
					}
				}
			}
		}()
	}
	wg.Wait()
	if done.Load() == 0 {
		t.Fatal("no job ended done")
	}
}

// BenchmarkServeJob times one in-process Submit→Done per kernel at 2^16 on
// 1- and 2-worker servers: the job's whole cost outside HTTP, the shape of
// a perfbench svc job.
func BenchmarkServeJob(b *testing.B) {
	const n = 1 << 16
	for _, w := range []int{1, 2} {
		s := New(Config{Workers: w})
		for _, k := range Kernels() {
			want := ExpectedChecksum(k, n)
			b.Run(fmt.Sprintf("%dw/%s", w, k), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					runOne(b, s, k, n, want)
				}
			})
		}
		s.Close()
	}
}
