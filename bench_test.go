package pstlbench

// One benchmark per table and figure of the paper, plus native benchmarks
// of the real parallel algorithms library. The experiment benchmarks run
// the full simulated experiment at a reduced problem scale (2^22 elements
// instead of 2^30) so `go test -bench=.` stays fast; `pstlreport` runs
// them at full scale. Key figures are attached as benchmark metrics.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/experiments"
	"pstlbench/internal/harness"
	"pstlbench/internal/kernels"
	"pstlbench/internal/machine"
	"pstlbench/internal/native"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/stream"
	"pstlbench/internal/tune"
)

// benchScale reduces the paper's 2^30 to 2^22 for the -bench runs.
const benchScale = 8

func runExperiment(b *testing.B, id string) {
	b.Helper()
	run := experiments.ByID(id)
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = run(experiments.Config{Scale: benchScale}).String()
	}
	if len(out) == 0 {
		b.Fatal("empty report")
	}
}

// Benchmarks regenerating each table/figure (simulated machines).

func BenchmarkTab2Stream(b *testing.B)         { runExperiment(b, "tab2") }
func BenchmarkFig1Allocator(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig2ForEachProblem(b *testing.B) { runExperiment(b, "fig2") }
func BenchmarkFig3ForEachStrong(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkTab3Counters(b *testing.B)       { runExperiment(b, "tab3") }
func BenchmarkFig4Find(b *testing.B)           { runExperiment(b, "fig4") }
func BenchmarkFig5Scan(b *testing.B)           { runExperiment(b, "fig5") }
func BenchmarkFig6Reduce(b *testing.B)         { runExperiment(b, "fig6") }
func BenchmarkTab4Counters(b *testing.B)       { runExperiment(b, "tab4") }
func BenchmarkFig7Sort(b *testing.B)           { runExperiment(b, "fig7") }
func BenchmarkTab5Speedups(b *testing.B)       { runExperiment(b, "tab5") }
func BenchmarkTab6Efficiency(b *testing.B)     { runExperiment(b, "tab6") }
func BenchmarkTab7BinarySize(b *testing.B)     { runExperiment(b, "tab7") }
func BenchmarkFig8GPUForEach(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9GPUReduce(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkExtARM(b *testing.B)             { runExperiment(b, "ext-arm") }
func BenchmarkExtNUMASteal(b *testing.B)       { runExperiment(b, "ext-numasteal") }
func BenchmarkExtAdaptive(b *testing.B)        { runExperiment(b, "ext-adaptive") }
func BenchmarkAblGrain(b *testing.B)           { runExperiment(b, "abl-grain") }
func BenchmarkAblContention(b *testing.B)      { runExperiment(b, "abl-contention") }
func BenchmarkAblCheapFutures(b *testing.B)    { runExperiment(b, "abl-hpx") }

// BenchmarkSimInvocation measures the simulator's own throughput: one
// virtual invocation per iteration, reporting the modeled time as a
// metric.
func BenchmarkSimInvocation(b *testing.B) {
	m := machine.MachC()
	var virtual float64
	for i := 0; i < b.N; i++ {
		r := simexec.Run(simexec.Config{
			Machine: m, Backend: backend.GCCTBB(),
			Workload: skeleton.Workload{Op: backend.OpSort, N: 1 << 30, ElemBytes: 8, Kit: 1},
			Threads:  128, Alloc: allocsim.FirstTouch,
		})
		virtual = r.Seconds
	}
	b.ReportMetric(virtual, "virtual-s/call")
}

// BenchmarkStream measures the native STREAM triad on the host.
func BenchmarkStream(b *testing.B) {
	var r stream.Result
	for i := 0; i < b.N; i++ {
		r = stream.Native(runtime.GOMAXPROCS(0), 1<<22, 1)
	}
	b.ReportMetric(r.Triad, "GB/s-triad")
}

// BenchmarkNativeKernels times six entries of the native kernel table at
// 2^20 and the six pipeline chains at 2^22 (32 MiB of float64, past the LLC
// of typical hosts, where fusing the passes pays) on this host through
// Kernel.Body, the body `pstlbench -mode native` runs: the same inputs,
// only the algorithm call timed, and a wrong result panics. The reported
// ns/op and MB/s are the body's manual timing, not the wall time of the
// untimed setup around it.
func BenchmarkNativeKernels(b *testing.B) {
	pool := native.New(runtime.GOMAXPROCS(0), native.StrategyStealing)
	defer pool.Close()
	p := core.Par(pool)
	run := func(k kernels.Kernel, n int) {
		b.Run(k.Name, func(b *testing.B) {
			var su harness.Suite
			r := su.RunIterations(harness.Benchmark{Name: k.Name, Fn: k.Body(p, n, 1)}, nil, b.N)
			b.ReportMetric(r.Seconds*1e9, "ns/op")
			b.ReportMetric(r.BytesPerSec/1e6, "MB/s")
		})
	}
	for _, name := range []string{"for_each", "reduce", "find", "inclusive_scan", "sort", "transform_reduce"} {
		k, ok := kernels.ByName(name)
		if !ok {
			b.Fatalf("no kernel %q", name)
		}
		run(k, 1<<20)
	}
	for _, k := range kernels.Chains() {
		run(k, 1<<22)
	}
}

// Native pool microbenchmarks: the per-invocation overhead of each
// scheduling strategy (the quantity the paper's small-size crossovers are
// made of).
// BenchmarkSchedulerOverhead measures pure dispatch cost: an empty-body
// ForChunks against each scheduling strategy across worker counts. With no
// useful work per chunk, the entire measured time is the scheduler — task
// publication, deque traffic, steals, parks and wakeups. This is the
// microbenchmark behind the dispatch-overhead axis that separates the
// backends in the paper's small-n regime.
func BenchmarkSchedulerOverhead(b *testing.B) {
	const n = 1 << 16
	for _, s := range []native.Strategy{native.StrategyForkJoin, native.StrategyStealing, native.StrategyCentralQueue} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			s, workers := s, workers
			b.Run(fmt.Sprintf("%s/w%d", s, workers), func(b *testing.B) {
				pool := native.New(workers, s)
				defer pool.Close()
				body := func(worker, lo, hi int) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pool.ForChunks(n, exec.Fine, body)
				}
			})
		}
	}
}

// BenchmarkCancelOverhead pins the cost the cancellation token adds to the
// dispatch path, alongside BenchmarkSchedulerOverhead: the same empty-body
// ForChunks, run uncancellable (plain), with a nil token (the disabled
// inlined check), and with a live never-fired token (one atomic load per
// chunk). The ns/chunk deltas between the variants are the per-chunk cost
// of cancellability — they must stay within the noise of the dispatch
// itself (≤ ~2 ns), with zero allocations.
func BenchmarkCancelOverhead(b *testing.B) {
	const n = 1 << 16
	workers := 4
	variants := []struct {
		name string
		run  func(p *native.Pool, c *exec.Cancel, body func(worker, lo, hi int))
	}{
		{"plain", func(p *native.Pool, _ *exec.Cancel, body func(worker, lo, hi int)) {
			p.ForChunks(n, exec.Fine, body)
		}},
		{"nil-token", func(p *native.Pool, _ *exec.Cancel, body func(worker, lo, hi int)) {
			p.ForChunksCancel(n, exec.Fine, nil, body)
		}},
		{"live-token", func(p *native.Pool, c *exec.Cancel, body func(worker, lo, hi int)) {
			p.ForChunksCancel(n, exec.Fine, c, body)
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			pool := native.New(workers, native.StrategyStealing)
			defer pool.Close()
			body := func(worker, lo, hi int) {}
			chunks := exec.Fine.Chunks(n, workers).Len()
			c := &exec.Cancel{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.run(pool, c, body)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(chunks), "ns/chunk")
		})
	}
}

// BenchmarkAdaptiveGrain compares fixed, auto, and adaptive grain
// selection on the native library's for_each and reduce, and measures the
// tuner's decision overhead. The adaptive sub-benchmarks drive a real
// propose/observe loop from the pool's scheduler counters — the steady
// state after convergence is one locked proposal plus one observation per
// call, which the decision-overhead sub-benchmark pins at well under 1 µs
// with zero allocations.
func BenchmarkAdaptiveGrain(b *testing.B) {
	const n = 1 << 20
	workers := runtime.GOMAXPROCS(0)
	grains := []struct {
		name string
		g    exec.Grain
	}{
		{"static", exec.Static},
		{"auto", exec.Auto},
		{"fine", exec.Fine},
	}
	algos := []struct {
		name string
		run  func(p core.Policy, data []float64)
	}{
		{"for_each", func(p core.Policy, data []float64) {
			core.ForEach(p, data, func(v *float64) { *v++ })
		}},
		{"reduce", func(p core.Policy, data []float64) {
			if core.Sum(p, data, 0) < 0 {
				b.Fatal("unreachable")
			}
		}},
	}
	for _, a := range algos {
		a := a
		for _, g := range grains {
			g := g
			b.Run(fmt.Sprintf("%s/%s", a.name, g.name), func(b *testing.B) {
				pool := native.New(workers, native.StrategyStealing)
				defer pool.Close()
				p := core.Par(pool).WithGrain(g.g)
				data := make([]float64, n)
				b.SetBytes(n * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.run(p, data)
				}
			})
		}
		b.Run(fmt.Sprintf("%s/adaptive", a.name), func(b *testing.B) {
			pool := native.New(workers, native.StrategyStealing)
			defer pool.Close()
			tuner := tune.New()
			p := core.Par(pool).WithGrainSource(tuner.Site(a.name))
			key := tune.Key{Site: a.name, N: n, Workers: pool.Workers()}
			data := make([]float64, n)
			b.SetBytes(n * 8)
			b.ResetTimer()
			prev := pool.Stats()
			for i := 0; i < b.N; i++ {
				start := nowSeconds()
				a.run(p, data)
				cur := pool.Stats()
				obs := tune.FromCounters(cur.Sub(prev).Counters())
				obs.Seconds = nowSeconds() - start
				tuner.Observe(key, obs)
				prev = cur
			}
			b.StopTimer()
			if chunk, _, ok := tuner.Best(key); ok {
				b.ReportMetric(float64(chunk), "chunk")
			}
		})
	}

	// Decision overhead: one Propose + one Observe against a converged
	// operating point — the tuner work added to every tuned invocation.
	b.Run("decision-overhead", func(b *testing.B) {
		tuner := tune.New()
		key := tune.Key{Site: "overhead", N: n, Workers: workers}
		// Drive to the locked steady state first.
		for i := 0; i < 16; i++ {
			tuner.Propose(key)
			tuner.Observe(key, tune.Observation{Seconds: 1e-3})
		}
		if !tuner.Converged(key) {
			b.Fatal("tuner did not lock during warmup")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tuner.Propose(key)
			tuner.Observe(key, tune.Observation{Seconds: 1e-3})
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/decision")
	})
}

// nowSeconds is a monotonic second count for manual interval timing.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) * 1e-9 }

// BenchmarkNUMASteal exercises the tiered victim scan against the flat one
// on an imbalanced workload that forces stealing: the first chunk band
// carries extra work, so every other worker drains its own deque and goes
// hunting. Sub-benchmarks split the workers over 1 (flat), 2 and 4 virtual
// NUMA nodes; the reported remote-steals/op and local-steals/op show the
// tiered scan keeping steals on-node while the flat pool has no notion of
// distance at all.
func BenchmarkNUMASteal(b *testing.B) {
	const n = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8 // keep the node splits non-degenerate on small hosts
	}
	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes%d/w%d", nodes, workers), func(b *testing.B) {
			topo := native.Topology{}
			if nodes > 1 {
				topo = native.SplitTopology(workers, nodes)
			}
			pool := native.NewWithTopology(workers, native.StrategyStealing, topo)
			defer pool.Close()
			spin := func(k int) {
				acc := 1.0
				for i := 0; i < k; i++ {
					acc = acc*1.0000001 + 1
				}
				if acc < 0 {
					b.Fatal("unreachable")
				}
			}
			body := func(worker, lo, hi int) {
				if lo == 0 {
					spin(4096) // skew: band 0 is the slow one, everyone steals
				}
				spin(hi - lo)
			}
			before := pool.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.ForChunks(n, exec.Fine, body)
			}
			b.StopTimer()
			d := pool.Stats().Sub(before)
			b.ReportMetric(float64(d.LocalSteals)/float64(b.N), "local-steals/op")
			b.ReportMetric(float64(d.RemoteSteals)/float64(b.N), "remote-steals/op")
		})
	}
}

func BenchmarkPoolOverhead(b *testing.B) {
	for _, s := range []native.Strategy{native.StrategyForkJoin, native.StrategyStealing, native.StrategyCentralQueue} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			pool := native.New(runtime.GOMAXPROCS(0), s)
			defer pool.Close()
			p := core.Par(pool)
			data := make([]float64, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ForEach(p, data, func(v *float64) { *v = 0 })
			}
		})
	}
}
