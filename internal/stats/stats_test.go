package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !approx(Mean(xs), 5) {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if got := StdDev(xs); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || Percentile(nil, 0.5) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-value stddev")
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("Speedup")
	}
	if Speedup(10, 0) != 0 {
		t.Fatal("Speedup zero denominator")
	}
	if Efficiency(8, 16) != 0.5 {
		t.Fatal("Efficiency")
	}
	if Efficiency(8, 0) != 0 {
		t.Fatal("Efficiency zero threads")
	}
}

func TestMaxThreadsAtEfficiency(t *testing.T) {
	threads := []int{1, 2, 4, 8, 16, 32}
	speedups := []float64{1.0, 1.9, 3.6, 6.0, 9.0, 10.0}
	// efficiencies: 1.0 0.95 0.90 0.75 0.56 0.31
	if got := MaxThreadsAtEfficiency(threads, speedups, 0.70); got != 8 {
		t.Fatalf("MaxThreadsAtEfficiency = %d, want 8", got)
	}
	if got := MaxThreadsAtEfficiency(threads, speedups, 0.99); got != 1 {
		t.Fatalf("threshold 0.99: %d", got)
	}
	// Nothing qualifies.
	if got := MaxThreadsAtEfficiency([]int{2}, []float64{0.5}, 0.7); got != 0 {
		t.Fatalf("nothing qualifies: %d", got)
	}
	// Non-monotone efficiency: the LARGEST qualifying count wins.
	if got := MaxThreadsAtEfficiency([]int{2, 4, 8}, []float64{1.0, 3.9, 6.0}, 0.7); got != 8 {
		t.Fatalf("non-monotone: %d", got)
	}
}

func TestMaxThreadsAtEfficiencyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MaxThreadsAtEfficiency([]int{1, 2}, []float64{1}, 0.7)
}

// Property: mean is within [min, max]; stddev is non-negative.
func TestPropMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9 && StdDev(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
