// Analytics: a numeric time-series pipeline exercising the scan/sort side
// of the library — adjacent_difference for returns, inclusive_scan for
// cumulative sums, minmax/count/partition for descriptive statistics, and
// nth_element for percentiles without a full sort.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"pstlbench/internal/core"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
)

func main() {
	pool := native.New(runtime.GOMAXPROCS(0), native.StrategyForkJoin)
	defer pool.Close()
	p := core.Par(pool)

	// A synthetic random-walk "price" series.
	const n = 1 << 18
	rng := rand.New(rand.NewSource(3))
	steps := make([]float64, n)
	core.Generate(core.Seq(), steps, func(i int) float64 { return 0 })
	for i := range steps { // rng is not parallel-safe: sequential setup
		steps[i] = rng.NormFloat64()
	}
	prices := make([]float64, n)
	core.ExclusiveScan(p, prices, steps, 100, func(a, b float64) float64 { return a + b })

	// Point-to-point changes (adjacent_difference).
	returns := make([]float64, n)
	core.AdjacentDifference(p, returns, prices, func(cur, prev float64) float64 { return cur - prev })
	returns[0] = 0

	// Descriptive statistics.
	less := func(a, b float64) bool { return a < b }
	lo, hi := core.MinMaxElement(p, prices, less)
	mean := core.Sum(p, prices, 0) / n
	// Second moment as a fused pipeline: center and square run in one
	// pass over prices, never materializing the deviations.
	variance := pipeline.Sum(p, pipeline.From(prices).
		Transform(func(v float64) float64 { return v - mean }).
		Transform(func(d float64) float64 { return d * d }), 0) / n
	fmt.Printf("series:  n=%d  min=%.2f@%d  max=%.2f@%d\n", n, prices[lo], lo, prices[hi], hi)
	fmt.Printf("moments: mean=%.3f  stddev=%.3f\n", mean, math.Sqrt(variance))

	upDays := core.CountIf(p, returns, func(r float64) bool { return r > 0 })
	fmt.Printf("returns: %d up / %d down\n", upDays, n-upDays)

	// Longest sorted (monotone rising) prefix of the walk.
	fmt.Printf("monotone rising prefix: %d points\n", core.IsSortedUntil(p, prices, less))

	// Percentiles via nth_element on a copy (no full sort needed).
	work := append([]float64(nil), prices...)
	pct := func(q float64) float64 {
		k := int(q * float64(n-1))
		core.NthElement(p, work, k, less)
		return work[k]
	}
	fmt.Printf("percentiles: p05=%.2f  p50=%.2f  p95=%.2f\n", pct(0.05), pct(0.50), pct(0.95))

	// Partition the returns into calm and volatile regimes, stably.
	calm := append([]float64(nil), returns...)
	k := core.StablePartition(p, calm, func(r float64) bool { return math.Abs(r) < 1 })
	fmt.Printf("regimes: %d calm moves, %d volatile moves\n", k, n-k)

	// Cross-check: the scan of the differences reconstructs the walk
	// (inclusive_scan is the inverse of adjacent_difference).
	cum := make([]float64, n)
	core.InclusiveSum(p, cum, returns)
	diff := math.Abs(100 + cum[n-1] - prices[n-1])
	fmt.Printf("checksum: start + cumulative return = %.3f, final price = %.3f (diff %.1e)\n",
		100+cum[n-1], prices[n-1], diff)
}
