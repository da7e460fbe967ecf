package native

import (
	"sync"
	"sync/atomic"
	"testing"

	"pstlbench/internal/exec"
)

// TestNestedDoInsideForChunksStress drives recursive two-task groups (fork)
// from inside ForChunks bodies on every strategy: the scheduler must keep
// nested parallelism deadlock-free (waiting callers steal through the same
// function as workers) and cover the iteration space exactly once. Run
// with -race this doubles as the data-race stress for the worker queues,
// the injector and the band CASes.
func TestNestedDoInsideForChunksStress(t *testing.T) {
	withPools(t, 4, func(t *testing.T, p *Pool) {
		const n = 512
		const depth = 4
		var leaves atomic.Int64
		var rec func(d int)
		rec = func(d int) {
			if d == 0 {
				leaves.Add(1)
				return
			}
			fork(p, func() { rec(d - 1) }, func() { rec(d - 1) })
		}
		hits := make([]int32, n)
		p.ForChunks(n, exec.Fine, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			rec(depth)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d visited %d times", i, h)
			}
		}
		chunks := exec.Fine.Chunks(n, p.Workers()).Len()
		if want := int64(chunks) << depth; leaves.Load() != want {
			t.Fatalf("leaves = %d, want %d", leaves.Load(), want)
		}
	})
}

// TestNestedForChunksPanicFirstWins checks first-panic-wins semantics
// through nesting: a panic raised inside a nested loop must propagate out
// through both levels, and the pool must stay usable afterwards.
func TestNestedForChunksPanicFirstWins(t *testing.T) {
	withPools(t, 4, func(t *testing.T, p *Pool) {
		for round := 0; round < 3; round++ {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("panic did not propagate through nesting")
					}
					if r != "inner" {
						t.Fatalf("got panic %v, want inner", r)
					}
				}()
				p.ForChunks(64, exec.Auto, func(_, lo, hi int) {
					fork(p, func() {}, func() { panic("inner") })
				})
			}()
			// The pool must remain fully usable after unwinding.
			var sum atomic.Int64
			p.ForChunks(1000, exec.Fine, func(_, lo, hi int) {
				sum.Add(int64(hi - lo))
			})
			if sum.Load() != 1000 {
				t.Fatalf("round %d: pool broken after panic: %d", round, sum.Load())
			}
		}
	})
}

// TestConcurrentNestedLoopsStress mixes independent outer loops from many
// goroutines, each nesting an inner loop per chunk, against a small pool.
func TestConcurrentNestedLoopsStress(t *testing.T) {
	withPools(t, 3, func(t *testing.T, p *Pool) {
		const drivers = 6
		const rows, cols = 16, 64
		errs := make(chan string, drivers)
		done := make(chan struct{}, drivers)
		for g := 0; g < drivers; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				hits := make([]int32, rows*cols)
				p.ForChunks(rows, exec.Auto, func(_, rlo, rhi int) {
					for r := rlo; r < rhi; r++ {
						r := r
						p.ForChunks(cols, exec.Fine, func(_, clo, chi int) {
							for c := clo; c < chi; c++ {
								atomic.AddInt32(&hits[r*cols+c], 1)
							}
						})
					}
				})
				for i, h := range hits {
					if h != 1 {
						errs <- "cell visited wrong number of times"
						_ = i
						return
					}
				}
			}()
		}
		for g := 0; g < drivers; g++ {
			<-done
		}
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	})
}

// TestTwoCallersNestedLoopsNoLivelock is the shape that livelocks a waiter
// which hands tasks of other jobs back to the pool instead of running them:
// two goroutines each run a loop on a 2-worker pool, and every chunk body
// runs a nested loop, so both workers and both callers end up waiting in
// nested calls while the other side's tasks are queued. It must finish.
func TestTwoCallersNestedLoopsNoLivelock(t *testing.T) {
	withPools(t, 2, func(t *testing.T, p *Pool) {
		const outer, inner = 8, 64
		var wg sync.WaitGroup
		var total atomic.Int64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 10; round++ {
					p.ForChunks(outer, exec.Grain{MaxChunk: 1}, func(_, lo, hi int) {
						for i := lo; i < hi; i++ {
							p.ForChunks(inner, exec.Fine, func(_, lo, hi int) {
								total.Add(int64(hi - lo))
							})
						}
					})
				}
			}()
		}
		wg.Wait()
		if want := int64(2 * 10 * outer * inner); total.Load() != want {
			t.Fatalf("ran %d iterations, want %d", total.Load(), want)
		}
	})
}

// TestStatsAccumulate sanity-checks the scheduler counters: loops on a
// multi-worker pool must record dispatch activity, and the counters must
// map onto counters.Set for reporting parity with the simulator.
func TestStatsAccumulate(t *testing.T) {
	p := New(4, StrategyStealing)
	defer p.Close()
	before := p.Stats()
	for i := 0; i < 50; i++ {
		p.ForChunks(1<<14, exec.Fine, func(_, lo, hi int) {})
	}
	d := p.Stats().Sub(before)
	if d.Steals() == 0 && d.Wakeups == 0 && d.Parks == 0 {
		t.Fatalf("no scheduling activity recorded: %+v", d)
	}
	if d.RemoteSteals != 0 {
		t.Fatalf("flat pool recorded remote steals: %+v", d)
	}
	cs := d.Counters()
	if cs.Steals() != float64(d.Steals()) || cs.Parks != float64(d.Parks) {
		t.Fatalf("Counters mapping mismatch: %+v vs %+v", cs, d)
	}
}
