package core

import (
	"math"
	"sync/atomic"
	"testing"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

// Failure injection: panics raised inside algorithm bodies must propagate
// to the caller, complete the sibling workers, and leave the pool usable.

func TestPanicInForEachPropagates(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	p := Par(pool).WithGrain(exec.Fine)
	s := make([]int, 10000)

	func() {
		defer func() {
			if r := recover(); r != "kernel exploded" {
				t.Fatalf("recovered %v", r)
			}
		}()
		ForEachIndex(p, s, func(i int, v *int) {
			if i == 7777 {
				panic("kernel exploded")
			}
			*v = i
		})
	}()

	// Pool still works afterwards.
	Fill(p, s, 3)
	if s[0] != 3 || s[len(s)-1] != 3 {
		t.Fatal("pool unusable after panic")
	}
}

func TestPanicInsideSortComparator(t *testing.T) {
	pool := native.New(4, native.StrategyCentralQueue)
	defer pool.Close()
	p := Par(pool)
	s := make([]float64, 20000)
	Generate(Seq(), s, func(i int) float64 { return float64(20000 - i) })
	// The comparator runs on every worker at once. Any comparison sort of
	// n elements compares at least n-1 times, so the panic always fires.
	// On this reversed input each output part is one whole run, so the
	// merge pass compares nothing and the panic fires in the leaf pass;
	// TestSortPanicInMergeKeepsElements covers a panic in the merge pass.
	var calls atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("comparator panic lost")
			}
		}()
		SortFunc(p, s, func(a, b float64) bool {
			if calls.Add(1) > 10000 {
				panic("comparator exploded")
			}
			return a < b
		})
	}()
	// The data may be partially sorted, but the pool must be intact.
	if got := Sum(p, s, 0); got != 20000*20001/2 {
		t.Fatalf("elements lost during panicked sort: sum %v", got)
	}
}

func TestPanicInReduceOp(t *testing.T) {
	pool := native.New(3, native.StrategyForkJoin)
	defer pool.Close()
	p := Par(pool).WithGrain(exec.Fine)
	s := make([]int, 5000)
	defer func() {
		if recover() == nil {
			t.Fatal("reduce op panic lost")
		}
	}()
	Reduce(p, s, 0, func(a, b int) int { panic("op exploded") })
}

// NaN handling: a less function over floats is only a strict weak ordering
// without NaNs; the documented contract is that the caller provides a
// total order (e.g. treating NaN as largest). Verify the algorithms behave
// sanely under such a comparator.
func TestNaNAwareSort(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	p := Par(pool)
	nan := math.NaN()
	s := make([]float64, 10000)
	Generate(Seq(), s, func(i int) float64 {
		if i%100 == 0 {
			return nan
		}
		return float64(i % 777)
	})
	nanLast := func(a, b float64) bool {
		// Total order: NaN sorts after everything.
		switch {
		case math.IsNaN(a):
			return false
		case math.IsNaN(b):
			return true
		default:
			return a < b
		}
	}
	SortFunc(p, s, nanLast)
	if !IsSorted(p, s, nanLast) {
		t.Fatal("NaN-aware sort produced an unsorted result")
	}
	// All 100 NaNs at the tail.
	for i := len(s) - 100; i < len(s); i++ {
		if !math.IsNaN(s[i]) {
			t.Fatalf("position %d: %v, want NaN", i, s[i])
		}
	}
	if math.IsNaN(s[len(s)-101]) {
		t.Fatal("NaN escaped the tail")
	}
	// MinElement under the same order finds a real number.
	if idx := MinElement(p, s, nanLast); math.IsNaN(s[idx]) {
		t.Fatal("MinElement picked NaN")
	}
}

func TestGuidedGrainWorksAcrossAlgorithms(t *testing.T) {
	pool := native.New(4, native.StrategyForkJoin)
	defer pool.Close()
	p := Par(pool).WithGrain(exec.Guided)
	s := iota(50000)
	if got := Sum(p, s, 0); got != 50000.0*50001/2 {
		t.Fatalf("guided reduce sum %v", got)
	}
	dst := make([]float64, len(s))
	InclusiveSum(p, dst, s)
	if dst[len(dst)-1] != 50000.0*50001/2 {
		t.Fatal("guided scan wrong")
	}
	if CountIf(p, s, func(v float64) bool { return v > 25000 }) != 25000 {
		t.Fatal("guided count wrong")
	}
}

func TestEmptyEverything(t *testing.T) {
	// Every algorithm must accept empty inputs under a parallel policy.
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	p := Par(pool)
	var s []int
	ForEach(p, s, func(*int) {})
	Sort(p, s)
	Reverse(p, s)
	if Sum(p, s, 0) != 0 || Count(p, s, 1) != 0 || Find(p, s, 1) != -1 {
		t.Fatal("empty aggregates wrong")
	}
	InclusiveSum(p, s, s)
	if StablePartition(p, s, func(int) bool { return true }) != 0 {
		t.Fatal("empty partition wrong")
	}
	if RemoveIf(p, s, func(int) bool { return true }) != 0 {
		t.Fatal("empty remove wrong")
	}
	if Unique(p, s) != 0 {
		t.Fatal("empty unique wrong")
	}
	mn, mx := MinMaxElement(p, s, intLess)
	if mn != -1 || mx != -1 {
		t.Fatal("empty minmax wrong")
	}
}
