// Quickstart: the five pSTL-Bench kernels through the library's public
// surface — parallel STL-style algorithms over an execution policy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
)

func main() {
	// A policy is a pool plus a chunking grain — the Go counterpart of
	// std::execution::par with a backend choice.
	pool := native.New(runtime.GOMAXPROCS(0), native.StrategyStealing)
	defer pool.Close()
	par := core.Par(pool)
	seq := core.Seq()

	const n = 1 << 20
	data := make([]float64, n)
	core.Generate(par, data, func(i int) float64 { return float64(i + 1) })

	// X::reduce -- the sum of [1..n].
	sum := core.Sum(par, data, 0)
	fmt.Printf("reduce:         sum(1..%d) = %.0f\n", n, sum)

	// X::find -- locate a random element (paper Section 3.1).
	rng := rand.New(rand.NewSource(1))
	target := float64(rng.Intn(n) + 1)
	idx := core.Find(par, data, target)
	fmt.Printf("find:           value %.0f at index %d\n", target, idx)

	// X::for_each -- the paper's Listing 1 kernel with k_it = 64.
	kit := 64
	core.ForEach(par, data, func(v *float64) {
		var a float64
		for i := 0; i < kit; i++ {
			a++
		}
		*v = a
	})
	fmt.Printf("for_each:       every element is now %.0f\n", data[n/2])

	// X::inclusive_scan -- prefix sums.
	prefix := make([]float64, n)
	core.InclusiveSum(par, prefix, data)
	fmt.Printf("inclusive_scan: prefix[last] = %.0f (= %d * k_it)\n", prefix[n-1], n)

	// X::sort -- a shuffled permutation, timed parallel vs sequential.
	perm := make([]float64, n)
	core.Generate(par, perm, func(i int) float64 { return float64(i + 1) })
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	backup := append([]float64(nil), perm...)

	start := time.Now()
	core.Sort(par, perm)
	parTime := time.Since(start)

	start = time.Now()
	core.Sort(seq, backup)
	seqTime := time.Since(start)

	fmt.Printf("sort:           sorted = %v, parallel %v vs sequential %v\n",
		core.IsSorted(par, perm, func(a, b float64) bool { return a < b }), parTime, seqTime)

	// Fused pipelines: compose element-wise stages lazily and run them as
	// ONE chunk-granular pass — no intermediate arrays. The staged form of
	// sum(g(f(x))) below streams three arrays through memory; the fused
	// form reads the source once.
	pl := pipeline.From(data).
		Transform(func(v float64) float64 { return v*3 + 1 }).
		Transform(func(v float64) float64 { return v * 0.5 })

	start = time.Now()
	fusedSum := pipeline.Sum(par, pl, 0)
	fusedTime := time.Since(start)

	start = time.Now()
	tmp1 := make([]float64, n)
	core.Transform(par, tmp1, data, func(v float64) float64 { return v*3 + 1 })
	tmp2 := make([]float64, n)
	core.Transform(par, tmp2, tmp1, func(v float64) float64 { return v * 0.5 })
	stagedSum := core.Sum(par, tmp2, 0)
	stagedTime := time.Since(start)

	tr := pl.ModelTraffic(8, "reduce")
	fmt.Printf("pipeline:       sum = %.0f (staged %.0f), fused %v vs staged %v, modeled traffic %d vs %d MiB\n",
		fusedSum, stagedSum, fusedTime, stagedTime, tr.Fused>>20, tr.Staged>>20)
}
