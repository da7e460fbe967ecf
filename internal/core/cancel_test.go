package core_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

// TestCancelNeverTearsSilently is the cancellation property test: racing a
// cancel against a running algorithm must never produce a state where the
// result is incomplete but the token claims the run was clean. Either the
// token reports canceled (and the caller discards the result, as the
// serving layer does), or the result is bit-exact complete.
func TestCancelNeverTearsSilently(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	const n = 1 << 16
	data := make([]float64, n)
	for i := range data {
		data[i] = 1
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tok := &exec.Cancel{}
		p := core.Par(pool).WithCancel(tok)
		delay := time.Duration(rng.Intn(40)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			tok.Cancel()
		}()
		sum := core.Sum(p, data, 0)
		if !tok.Canceled() && sum != n {
			t.Fatalf("trial %d: token clean but Sum=%v, want %v (torn result escaped)",
				trial, sum, float64(n))
		}
	}
}

// TestCancelSortEitherCompleteOrFlagged runs the same property through the
// multi-phase path (leaf pass, split selection, merge pass).
func TestCancelSortEitherCompleteOrFlagged(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	const n = 1 << 15
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64()
		}
		tok := &exec.Cancel{}
		p := core.Par(pool).WithCancel(tok)
		delay := time.Duration(rng.Intn(200)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			tok.Cancel()
		}()
		core.Sort(p, data)
		if !tok.Canceled() {
			for i := 1; i < n; i++ {
				if data[i-1] > data[i] {
					t.Fatalf("trial %d: token clean but output unsorted at %d", trial, i)
				}
			}
		}
	}
}

// TestCancelMergeEitherCompleteOrFlagged runs the same property through
// Merge: either the token fired, or dst is the complete merge.
func TestCancelMergeEitherCompleteOrFlagged(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	const n = 1 << 16
	a, b := make([]int, n/2), make([]int, n/2)
	for i := range a {
		a[i], b[i] = 2*i, 2*i+1
	}
	less := func(x, y int) bool { return x < y }
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		dst := make([]int, n)
		tok := &exec.Cancel{}
		p := core.Par(pool).WithCancel(tok)
		delay := time.Duration(rng.Intn(100)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			tok.Cancel()
		}()
		core.Merge(p, dst, a, b, less)
		if !tok.Canceled() {
			for i, v := range dst {
				if v != i {
					t.Fatalf("trial %d: token clean but dst[%d] = %d", trial, i, v)
				}
			}
		}
	}
}

// TestCancelStopsWork pins that a pre-fired token suppresses the loop body
// entirely, and a mid-loop cancel abandons most of the iteration space.
func TestCancelStopsWork(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	const n = 1 << 16
	data := make([]float64, n)

	tok := &exec.Cancel{}
	tok.Cancel()
	p := core.Par(pool).WithCancel(tok)
	var touched atomic.Int64
	core.ForEach(p, data, func(v *float64) { touched.Add(1) })
	if touched.Load() != 0 {
		t.Fatalf("pre-fired token: body ran %d times", touched.Load())
	}
	if !p.Canceled() {
		t.Fatal("Policy.Canceled() lost the token state")
	}

	tok2 := &exec.Cancel{}
	p2 := core.Par(pool).WithCancel(tok2).WithGrain(exec.Grain{MinChunk: 16, MaxChunk: 16})
	var ran atomic.Int64
	core.ForEach(p2, data, func(v *float64) {
		ran.Add(1)
		tok2.Cancel()
	})
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("mid-loop cancel: %d of %d iterations ran", got, n)
	}
}

// TestCancelFallbackWrapper checks the body-wrapper path used for pools
// without native cancellation support (exec.CancelPool): semantics must
// match, chunk granularity included.
func TestCancelFallbackWrapper(t *testing.T) {
	tok := &exec.Cancel{}
	tok.Cancel()
	p := core.Policy{Pool: plainPool{}, Grain: exec.Auto, Cancel: tok}
	var ran int
	core.ForEach(p, make([]float64, 1024), func(v *float64) { ran++ })
	if ran != 0 {
		t.Fatalf("wrapper path: body ran %d times under a fired token", ran)
	}
}

// plainPool is an exec.Pool that does NOT implement exec.CancelPool,
// forcing Policy.dispatch onto the wrapper path. It embeds Serial but hides
// its ForChunksCancel by redefining the method set through a distinct type.
type plainPool struct{}

func (plainPool) Workers() int { return 2 }
func (plainPool) ForChunks(n int, g exec.Grain, body func(worker, lo, hi int)) {
	for _, r := range g.Partition(n, 2) {
		body(0, r.Lo, r.Hi)
	}
}
