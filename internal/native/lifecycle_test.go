package native

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/exec"
)

// TestCloseIdempotent covers the long-running-service lifecycle: a pool
// owner with several shutdown paths may Close more than once, including
// concurrently.
func TestCloseIdempotent(t *testing.T) {
	p := New(4, StrategyStealing)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	p.Close() // and once more after everyone is done
}

// TestForChunksReleasesBody pins that a finished ForChunks leaves neither
// its body nor what the body captures reachable through the pool's recycled
// job.
func TestForChunksReleasesBody(t *testing.T) {
	withPools(t, 2, func(t *testing.T, p *Pool) {
		var freed atomic.Bool
		func() {
			v := new([64]int) // not a tiny allocation, so its finalizer runs alone
			runtime.SetFinalizer(v, func(*[64]int) { freed.Store(true) })
			p.ForChunks(len(v), exec.Static, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					v[i]++
				}
			})
		}()
		runtime.GC()
		for deadline := time.Now().Add(time.Second); !freed.Load() && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		if !freed.Load() {
			t.Fatal("data captured by the loop body is still reachable after ForChunks returned")
		}
	})
}

func mustPanicWith(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v; want one mentioning %q", r, substr)
		}
	}()
	fn()
}

// TestUseAfterClosePanics pins the contract that submitting to a closed
// pool fails loudly instead of parking the caller forever.
func TestUseAfterClosePanics(t *testing.T) {
	p := New(2, StrategyStealing)
	p.Close()
	mustPanicWith(t, "closed Pool", func() {
		p.ForChunks(1024, exec.Auto, func(_, _, _ int) {})
	})
	mustPanicWith(t, "closed Pool", func() {
		p.ForChunks(1, exec.Auto, func(_, _, _ int) {}) // even the inline one-chunk path
	})
}

// TestForChunksCancelPreFired: a token that fired before submission runs
// nothing at all.
func TestForChunksCancelPreFired(t *testing.T) {
	for _, s := range []Strategy{StrategyForkJoin, StrategyStealing, StrategyCentralQueue} {
		p := New(4, s)
		c := &exec.Cancel{}
		c.Cancel()
		var ran atomic.Int64
		p.ForChunksCancel(1<<16, exec.Fine, c, func(_, lo, hi int) { ran.Add(int64(hi - lo)) })
		p.Close()
		if got := ran.Load(); got != 0 {
			t.Errorf("%v: pre-fired token ran %d iterations, want 0", s, got)
		}
	}
}

// TestForChunksCancelMidLoop fires the token from inside the first executed
// chunk and checks that the loop abandons most of its chunks: every chunk
// dispatch checks the token, so at most the chunks already past their check
// (bounded by the worker count) may still run.
func TestForChunksCancelMidLoop(t *testing.T) {
	const n = 1 << 16
	for _, s := range []Strategy{StrategyForkJoin, StrategyStealing, StrategyCentralQueue} {
		p := New(4, s)
		c := &exec.Cancel{}
		var chunks atomic.Int64
		g := exec.Grain{MinChunk: 16, MaxChunk: 16} // 4096 chunks
		p.ForChunksCancel(n, g, c, func(_, lo, hi int) {
			chunks.Add(1)
			c.Cancel()
		})
		p.Close()
		total := int64(g.Chunks(n, 4).Len())
		if got := chunks.Load(); got >= total/2 {
			t.Errorf("%v: %d of %d chunks ran after mid-loop cancel", s, got, total)
		}
		if !c.Canceled() {
			t.Errorf("%v: token lost its canceled state", s)
		}
	}
}

// TestForChunksCancelStress races concurrent cancellable loops against
// external cancel calls on one shared pool — the serving layer's steady
// state — and checks the pool stays usable afterwards.
func TestForChunksCancelStress(t *testing.T) {
	p := New(4, StrategyStealing)
	defer p.Close()
	const loops = 64
	var wg sync.WaitGroup
	for i := 0; i < loops; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &exec.Cancel{}
			done := make(chan struct{})
			go func() {
				if i%2 == 0 {
					c.Cancel() // races the submission itself
				}
				close(done)
			}()
			var ran atomic.Int64
			p.ForChunksCancel(1<<12, exec.Fine, c, func(_, lo, hi int) {
				ran.Add(int64(hi - lo))
			})
			<-done
			if !c.Canceled() && ran.Load() != 1<<12 {
				t.Errorf("uncanceled loop ran %d of %d iterations", ran.Load(), 1<<12)
			}
		}()
	}
	wg.Wait()
	// The pool must still run complete, correct loops.
	var ran atomic.Int64
	p.ForChunks(1<<12, exec.Fine, func(_, lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != 1<<12 {
		t.Fatalf("pool damaged by cancel stress: ran %d of %d", ran.Load(), 1<<12)
	}
}
