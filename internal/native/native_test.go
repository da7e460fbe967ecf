package native

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/exec"
)

var allStrategies = []Strategy{StrategyForkJoin, StrategyStealing, StrategyCentralQueue}

func withPools(t *testing.T, workers int, fn func(t *testing.T, p *Pool)) {
	t.Helper()
	for _, s := range allStrategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			p := New(workers, s)
			defer p.Close()
			fn(t, p)
		})
	}
}

// TestForChunksCoversIterationSpace checks that every strategy runs exactly
// the grain's decomposition: the body sees each index once, and the set of
// (lo, hi) ranges it receives is g.Chunks(n, P).At(i) for every i. A
// decomposition of one chunk runs inline as [0, n).
func TestForChunksCoversIterationSpace(t *testing.T) {
	grains := []exec.Grain{exec.Static, exec.Auto, exec.Fine, exec.Guided,
		{MinChunk: 7}, {MinChunk: 64, MaxChunk: 64}}
	for _, s := range allStrategies {
		t.Run(s.String(), func(t *testing.T) {
			for _, workers := range []int{1, 2, 3, 4, 7} {
				p := New(workers, s)
				for _, n := range []int{0, 1, 3, 64, 1000, 100000} {
					for _, g := range grains {
						checkRunsDecomposition(t, p, n, g)
					}
				}
				p.Close()
			}
		})
	}
}

func checkRunsDecomposition(t *testing.T, p *Pool, n int, g exec.Grain) {
	t.Helper()
	P := p.Workers()
	hits := make([]int32, n)
	var mu sync.Mutex
	var got []exec.Range
	p.ForChunks(n, g, func(worker, lo, hi int) {
		if worker < 0 || worker > P {
			t.Errorf("worker index %d out of range", worker)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		mu.Lock()
		got = append(got, exec.Range{Lo: lo, Hi: hi})
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("P=%d n=%d grain=%+v: index %d visited %d times", P, n, g, i, h)
		}
	}
	cs := g.Chunks(n, P) // one chunk, when there is one, is [0, n)
	var want []exec.Range
	for i := 0; i < cs.Len(); i++ {
		want = append(want, cs.At(i))
	}
	slices.SortFunc(got, func(a, b exec.Range) int { return a.Lo - b.Lo })
	if !slices.Equal(got, want) {
		t.Fatalf("P=%d n=%d grain=%+v: body ran %v, decomposition is %v", P, n, g, got, want)
	}
}

func TestForChunksParallelSum(t *testing.T) {
	withPools(t, 8, func(t *testing.T, p *Pool) {
		const n = 1 << 18
		var sum atomic.Int64
		p.ForChunks(n, exec.Auto, func(worker, lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		want := int64(n) * (n - 1) / 2
		if got := sum.Load(); got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
	})
}

// fork runs the tasks as one loop with a chunk per task, so every task is
// its own schedulable unit: the fork-join task group expressed as a
// ForChunks call.
func fork(p *Pool, tasks ...func()) {
	p.ForChunks(len(tasks), exec.Grain{MaxChunk: 1}, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			tasks[i]()
		}
	})
}

func TestNestedParallelismNoDeadlock(t *testing.T) {
	// Recursive divide-and-conquer through nested loops on a pool smaller
	// than the task tree must not deadlock (callers help while waiting).
	withPools(t, 2, func(t *testing.T, p *Pool) {
		var count atomic.Int64
		var rec func(depth int)
		rec = func(depth int) {
			if depth == 0 {
				count.Add(1)
				return
			}
			fork(p, func() { rec(depth - 1) }, func() { rec(depth - 1) })
		}
		rec(8)
		if got := count.Load(); got != 256 {
			t.Fatalf("leaf count = %d, want 256", got)
		}
	})
}

func TestNestedForChunks(t *testing.T) {
	withPools(t, 3, func(t *testing.T, p *Pool) {
		const rows, cols = 40, 100
		hits := make([]int32, rows*cols)
		p.ForChunks(rows, exec.Auto, func(_, rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				r := r
				p.ForChunks(cols, exec.Static, func(_, clo, chi int) {
					for c := clo; c < chi; c++ {
						atomic.AddInt32(&hits[r*cols+c], 1)
					}
				})
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("cell %d visited %d times", i, h)
			}
		}
	})
}

func TestPanicPropagation(t *testing.T) {
	withPools(t, 4, func(t *testing.T, p *Pool) {
		mustPanic := func(name string, fn func()) {
			t.Helper()
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: panic did not propagate", name)
				} else if r != "boom" {
					t.Fatalf("%s: got panic %v, want boom", name, r)
				}
			}()
			fn()
		}
		mustPanic("ForChunks", func() {
			p.ForChunks(1000, exec.Fine, func(_, lo, hi int) {
				if lo <= 500 && 500 < hi {
					panic("boom")
				}
			})
		})
		mustPanic("nested ForChunks", func() {
			fork(p, func() {}, func() { fork(p, func() {}, func() { panic("boom") }) }, func() {})
		})
		// The pool must remain usable after a panic.
		var n atomic.Int32
		p.ForChunks(100, exec.Static, func(_, lo, hi int) { n.Add(int32(hi - lo)) })
		if n.Load() != 100 {
			t.Fatalf("pool broken after panic: %d", n.Load())
		}
	})
}

// TestPanicWaitsForSiblingChunks: a chunk's panic reaches the caller only
// after every sibling chunk has returned, so no chunk keeps running against
// the caller's unwound state.
func TestPanicWaitsForSiblingChunks(t *testing.T) {
	withPools(t, 2, func(t *testing.T, p *Pool) {
		var running atomic.Int32
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("%d sibling chunks still running when the panic reached the caller", n)
			}
		}()
		p.ForChunks(8, exec.Grain{MaxChunk: 1}, func(_, lo, hi int) {
			running.Add(1)
			defer running.Add(-1)
			if lo == 0 {
				panic("boom")
			}
			time.Sleep(time.Millisecond)
		})
	})
}

func TestWorkerCountClamped(t *testing.T) {
	p := New(0, StrategyForkJoin)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", p.Workers())
	}
	ran := false
	p.ForChunks(10, exec.Static, func(_, lo, hi int) { ran = true })
	if !ran {
		t.Fatal("loop body never ran")
	}
}

func TestStealingBalancesSkewedWork(t *testing.T) {
	// With a fine grain and wildly skewed chunk costs, stealing must still
	// execute everything exactly once.
	p := New(4, StrategyStealing)
	defer p.Close()
	const n = 4096
	hits := make([]int32, n)
	p.ForChunks(n, exec.Grain{ChunksPerWorker: 16}, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%64 == 0 {
				// Simulate a heavy element.
				s := 0
				for k := 0; k < 10000; k++ {
					s += k
				}
				_ = s
			}
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestBandStealHalf(t *testing.T) {
	var b chunkBand
	b.state.Store(packBand(0, 10))
	lo, hi, ok := b.stealHalf()
	_, bhi := unpackBand(b.state.Load())
	if !ok || hi-lo != 5 || bhi != 5 {
		t.Fatalf("stealHalf: lo=%d hi=%d ok=%v band.hi=%d", lo, hi, ok, bhi)
	}
	// A band with one chunk is not stealable.
	var b2 chunkBand
	b2.state.Store(packBand(3, 4))
	if _, _, ok := b2.stealHalf(); ok {
		t.Fatal("stole from single-chunk band")
	}
	if i, ok := b2.take(); !ok || i != 3 {
		t.Fatalf("take: %d %v", i, ok)
	}
	if _, ok := b2.take(); ok {
		t.Fatal("take from empty band succeeded")
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		StrategyForkJoin:     "forkjoin",
		StrategyStealing:     "stealing",
		StrategyCentralQueue: "centralqueue",
		Strategy(99):         "Strategy(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestCloseDrainsAndStops(t *testing.T) {
	p := New(3, StrategyCentralQueue)
	var n atomic.Int32
	p.ForChunks(1000, exec.Fine, func(_, lo, hi int) { n.Add(int32(hi - lo)) })
	p.Close()
	if n.Load() != 1000 {
		t.Fatalf("work lost across Close: %d", n.Load())
	}
}

func TestConcurrentIndependentLoops(t *testing.T) {
	// Multiple goroutines may drive independent loops through one pool
	// concurrently; each loop must still cover its space exactly once.
	withPools(t, 4, func(t *testing.T, p *Pool) {
		const loops = 8
		const n = 20000
		var wg sync.WaitGroup
		errs := make(chan string, loops)
		for l := 0; l < loops; l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hits := make([]int32, n)
				p.ForChunks(n, exec.Auto, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						errs <- fmt.Sprintf("index %d visited %d times", i, h)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	})
}

// TestConcurrentDoGroups runs task groups from 16 goroutines at once on a
// smaller pool; each task of a group runs a nested loop of its own.
func TestConcurrentDoGroups(t *testing.T) {
	withPools(t, 3, func(t *testing.T, p *Pool) {
		var total atomic.Int64
		add := func(n int) func() {
			return func() {
				p.ForChunks(n, exec.Fine, func(_, lo, hi int) { total.Add(int64(hi - lo)) })
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fork(p, add(1), add(10), add(100))
			}()
		}
		wg.Wait()
		if got := total.Load(); got != 16*111 {
			t.Fatalf("total = %d, want %d", got, 16*111)
		}
	})
}
