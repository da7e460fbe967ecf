// Package stats provides the statistics used by the experiment reports:
// means, dispersion, speedup and parallel-efficiency calculations, and the
// ">= 70 % efficiency" thread-count metric of the paper's Table 6.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics — the estimator the serving
// layer's latency reporting uses for p50/p99. Empty input returns 0.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return PercentileSorted(c, q)
}

// PercentileSorted is Percentile over already-sorted input, without the
// copy — for callers taking several quantiles from one sample set.
func PercentileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Speedup returns baseline/parallel, the paper's speedup definition
// (against GCC's sequential implementation).
func Speedup(baseline, parallel float64) float64 {
	if parallel == 0 {
		return 0
	}
	return baseline / parallel
}

// Efficiency returns the parallel efficiency of a speedup at a thread
// count: speedup/threads.
func Efficiency(speedup float64, threads int) float64 {
	if threads < 1 {
		return 0
	}
	return speedup / float64(threads)
}

// MaxThreadsAtEfficiency returns the largest thread count whose efficiency
// (speedup[i]/threads[i]) is at least threshold — the metric of the
// paper's Table 6. threads and speedups are parallel slices. Returns 0 if
// no thread count qualifies.
func MaxThreadsAtEfficiency(threads []int, speedups []float64, threshold float64) int {
	if len(threads) != len(speedups) {
		panic("stats: threads/speedups length mismatch")
	}
	best := 0
	for i, th := range threads {
		if Efficiency(speedups[i], th) >= threshold && th > best {
			best = th
		}
	}
	return best
}
