// Package stream implements the STREAM bandwidth benchmark (McCalpin) that
// the paper uses to calibrate expectations for memory-bound algorithms
// (Table 2's last row: single-core and all-core bandwidth).
//
// Despite the name, this package has nothing to do with streaming
// workloads: for the continuous-ingest streaming plane (event-time
// windows, watermarks, backpressure, windowed operators through the
// serving tier) see internal/flow. The host measurement of THIS benchmark
// is pstlbench -mode stream-native and the simulated row is pstlreport
// -exp tab2; cmd/pstlstream drives internal/flow.
//
// Two modes exist: Native measures the host this code actually runs on,
// using the library's own parallel Transform; Simulated runs the triad
// through the memory-system model and must reproduce the Table 2 figures,
// which ties the simulator's calibration to the paper's published numbers.
package stream

import (
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/machine"
	"pstlbench/internal/memsys"
	"pstlbench/internal/native"
)

// Result is a STREAM measurement in GB/s.
type Result struct {
	Copy, Scale, Add, Triad float64
}

// Best returns the headline figure (max of the four kernels, as STREAM
// reports are commonly summarized).
func (r Result) Best() float64 {
	best := r.Copy
	for _, v := range []float64{r.Scale, r.Add, r.Triad} {
		if v > best {
			best = v
		}
	}
	return best
}

// Native runs the four STREAM kernels on the host with the given worker
// count and returns measured bandwidth. n is the per-array element count
// (each element 8 bytes; STREAM wants arrays well beyond cache).
func Native(workers, n, iters int) Result {
	if n < 1 {
		n = 1
	}
	if iters < 1 {
		iters = 1
	}
	pool := native.New(workers, native.StrategyForkJoin)
	defer pool.Close()
	p := core.Par(pool).WithGrain(exec.Static)

	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	core.Generate(p, a, func(i int) float64 { return float64(i) })
	core.Fill(p, b, 2.0)
	core.Fill(p, c, 0.5)

	const scalar = 3.0
	measure := func(bytesPerElem int, kernel func()) float64 {
		best := 0.0
		for it := 0; it < iters; it++ {
			start := time.Now()
			kernel()
			secs := time.Since(start).Seconds()
			if secs <= 0 {
				continue
			}
			if bw := float64(n) * float64(bytesPerElem) / secs / 1e9; bw > best {
				best = bw
			}
		}
		return best
	}
	return Result{
		Copy:  measure(16, func() { core.Copy(p, c, a) }),
		Scale: measure(16, func() { core.Transform(p, b, c, func(v float64) float64 { return scalar * v }) }),
		Add:   measure(24, func() { core.TransformBinary(p, c, a, b, func(x, y float64) float64 { return x + y }) }),
		Triad: measure(24, func() {
			core.TransformBinary(p, a, b, c, func(x, y float64) float64 { return x + scalar*y })
		}),
	}
}

// Simulated runs the triad through the memory-system model with perfectly
// local first-touch placement and returns the achieved bandwidth for the
// given core count. It must reproduce Table 2's STREAM row.
func Simulated(m *machine.Machine, cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	if cores > m.Cores {
		cores = m.Cores
	}
	streams := make([]memsys.Stream, cores)
	for c := 0; c < cores; c++ {
		tr := make([]float64, m.NUMANodes)
		tr[m.NodeOf(c)] = 1
		streams[c] = memsys.Stream{Core: c, Demand: 1e13, NodeFrac: tr}
	}
	rates := memsys.Solve(m, memsys.LevelDRAM, streams)
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total / 1e9
}
