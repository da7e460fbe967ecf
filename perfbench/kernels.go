package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/native"
	"pstlbench/internal/stream"
)

// The pstl-kernels workload applies the paper's method: each of its five
// kernels is timed on its own, closed loop with one caller, at a size that
// is pure dispatch (2^10) and at a size far beyond the cache, where only
// memory bandwidth matters.
const (
	smallN = 1 << 10
	// The 4x-LLC rule gives 2^26 elements (512 MiB arrays) on a 105 MiB
	// LLC. The large size is capped so that the workload's arrays fit a
	// shared host's memory and a run holds several sort calls; both the
	// rule's n and the n run are recorded with every result.
	largeCap = 1 << 24 // 128 MiB per array, still beyond the LLC
	sortCap  = 1 << 22 // one parallel sort call ~0.7 s
)

var (
	allKernels       = []string{"for_each", "find", "inclusive_scan", "reduce", "sort"}
	bandwidthKernels = []string{"for_each", "find", "inclusive_scan", "reduce"}
)

// kcase is one (kernel, n) cell: a timed call on fixed inputs and the
// sequential oracle's digest of its result.
type kcase struct {
	kernel string
	n      int
	bytes  float64 // bytes one call reads and writes (0 for sort)
	share  float64 // share of the measured time

	reset  func()              // untimed, at the start of each block
	before func()              // untimed, before each call
	call   func(p core.Policy) // the timed call
	got    func() uint64       // untimed, the result's digest
	wants  []uint64            // oracle digests, indexed by calls % len
	calls  int

	times samples
}

// kdata holds one size's inputs. src ends in the one value equal to
// valueRange, so find scans the whole array.
type kdata struct {
	src, dst, sortIn, sortBuf []float64
}

func newKData(seed uint64, n, sortN int, stream uint64) *kdata {
	d := &kdata{
		src:     kernelInput(seed, stream, n),
		dst:     make([]float64, n),
		sortIn:  kernelInput(seed, stream+1, sortN),
		sortBuf: make([]float64, sortN),
	}
	d.src[n-1] = valueRange
	return d
}

func add(a, b float64) float64 { return a + b }

// flip is for_each's body: an exact involution, so repeated calls on one
// array alternate between two known states.
func flip(v *float64) { *v = valueRange - *v }

// buildCases returns the five kernels over d, with their oracle digests
// computed by the same algorithms under core.Seq().
func buildCases(d *kdata) []*kcase {
	seq := core.Seq()
	n, sortN := len(d.src), len(d.sortIn)
	dstDigest := func() uint64 { return digest(d.dst) }

	copy(d.dst, d.src)
	core.ForEach(seq, d.dst, flip)
	flipped := digest(d.dst)
	wantIdx := core.Find(seq, d.src, valueRange)
	core.InclusiveScan(seq, d.dst, d.src, add)
	scanned := digest(d.dst)
	sum := core.Reduce(seq, d.src, 0, add)
	copy(d.sortBuf, d.sortIn)
	core.Sort(seq, d.sortBuf)
	sorted := digest(d.sortBuf)

	var idx int
	var got float64
	return []*kcase{
		{kernel: "for_each", n: n, bytes: 16 * float64(n),
			reset: func() { copy(d.dst, d.src) },
			call:  func(p core.Policy) { core.ForEach(p, d.dst, flip) },
			got:   dstDigest, wants: []uint64{digest(d.src), flipped}},
		{kernel: "find", n: n, bytes: 8 * float64(n),
			call:  func(p core.Policy) { idx = core.Find(p, d.src, valueRange) },
			got:   func() uint64 { return uint64(idx) },
			wants: []uint64{uint64(wantIdx)}},
		{kernel: "inclusive_scan", n: n, bytes: 16 * float64(n),
			call: func(p core.Policy) { core.InclusiveScan(p, d.dst, d.src, add) },
			got:  dstDigest, wants: []uint64{scanned}},
		{kernel: "reduce", n: n, bytes: 8 * float64(n),
			call:  func(p core.Policy) { got = core.Reduce(p, d.src, 0, add) },
			got:   func() uint64 { return math.Float64bits(got) },
			wants: []uint64{math.Float64bits(sum)}},
		{kernel: "sort", n: sortN,
			before: func() { copy(d.sortBuf, d.sortIn) },
			call:   func(p core.Policy) { core.Sort(p, d.sortBuf) },
			got:    func() uint64 { return digest(d.sortBuf) },
			wants:  []uint64{sorted}},
	}
}

// runBlock runs c closed loop for at least one call and about budget,
// checking every call against the oracle. With stats set it also
// accumulates the pool's scheduler counters across the calls.
func runBlock(c *kcase, p core.Policy, budget time.Duration, r *result, pool *native.Pool, stats *native.SchedStats) {
	if c.reset != nil {
		c.reset()
		c.calls = 0
	}
	end := time.Now().Add(budget)
	for first := true; first || time.Now().Before(end); first = false {
		if c.before != nil {
			c.before()
		}
		var s0 native.SchedStats
		if stats != nil {
			s0 = pool.Stats()
		}
		t0 := time.Now()
		c.call(p)
		dt := time.Since(t0)
		if stats != nil {
			s1 := pool.Stats()
			stats.LocalSteals += s1.LocalSteals + s1.RemoteSteals - s0.LocalSteals - s0.RemoteSteals
			stats.Parks += s1.Parks - s0.Parks
			stats.Wakeups += s1.Wakeups - s0.Wakeups
		}
		c.calls++
		c.times.add(dt)
		got, want := c.got(), c.wants[c.calls%len(c.wants)]
		r.check(got == want, "%s n=%d call %d: digest %x, oracle %x", c.kernel, c.n, c.calls, got, want)
	}
}

// kernelRounds splits every case's share of the run into interleaved
// blocks, so slow drifts of the host hit all cases alike.
const kernelRounds = 6

// runRounds gives every case its share of dur over kernelRounds rounds.
func runRounds(cases []*kcase, p core.Policy, dur time.Duration, r *result, pool *native.Pool, stats *native.SchedStats) {
	for round := 0; round < kernelRounds; round++ {
		for _, c := range cases {
			runBlock(c, p, time.Duration(float64(dur)*c.share/kernelRounds), r, pool, stats)
		}
	}
}

func runKernels(e *env, seed uint64, dur time.Duration, traced bool) (*result, error) {
	r := newResult()
	f := e.facts
	// The workload's arrays are a few hundred MiB; a tighter GC target
	// keeps sort's per-call scratch from doubling the benchmark's heap.
	defer debug.SetGCPercent(debug.SetGCPercent(50))

	var triad float64
	if traced {
		// Measured first, in the same run, so the roofline denominator
		// comes from this host at this moment.
		triad = stream.Native(1, f.largeN, 3).Triad
		runtime.GC()
		debug.FreeOSMemory()
	}

	// Set-up: pool construction, seeded input generation and the first
	// warm-up call of every kernel at the small size; median of five.
	reps := 5
	if traced {
		reps = 1
	}
	var setups []float64
	var pool *native.Pool
	var small, large *kdata
	for rep := 0; rep < reps; rep++ {
		if pool != nil {
			pool.Close()
			small, large = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		pool = native.New(f.nproc, native.StrategyStealing)
		small = newKData(seed, smallN, smallN, 1)
		large = newKData(seed, f.largeN, f.sortN, 3)
		p := core.Par(pool)
		warm := append([]float64(nil), small.src...)
		core.ForEach(p, warm, flip)
		core.Find(p, small.src, valueRange)
		core.InclusiveScan(p, small.dst, small.src, add)
		core.Reduce(p, small.src, 0, add)
		core.Sort(p, warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer pool.Close()
	p := core.Par(pool)

	smallCases := buildCases(small)
	largeCases := buildCases(large)
	for _, c := range smallCases {
		c.share = 0.06
	}
	for _, c := range largeCases {
		c.share = 0.10
		if c.kernel == "sort" {
			c.share = 0.30
		}
	}

	var untracedSmall []float64
	var sched native.SchedStats
	if traced {
		// A short untraced pass over the small cases is the baseline the
		// tracing overhead is measured against.
		base := buildCases(small)
		for _, c := range base {
			c.share = 0.04
		}
		runRounds(base, p, dur, r, pool, nil)
		for _, c := range base {
			untracedSmall = append(untracedSmall, c.times.median())
		}
		runRounds(smallCases, p, dur, r, pool, &sched)
		runRounds(largeCases, p, dur, r, pool, nil)
	} else {
		runRounds(append(append([]*kcase(nil), smallCases...), largeCases...), p, dur, r, pool, nil)
	}

	var smallMed, smallP90, largeRate, gbps []float64
	for _, c := range smallCases {
		smallMed = append(smallMed, c.times.median())
		smallP90 = append(smallP90, c.times.quantile(0.9))
		fmt.Printf("# %-14s n=2^%-2d %s\n", c.kernel, log2(c.n), c.times.summary(1e6, "us"))
	}
	for _, c := range largeCases {
		largeRate = append(largeRate, 1/c.times.median())
		if c.bytes > 0 {
			gbps = append(gbps, c.bytes/c.times.median()/1e9)
		}
		fmt.Printf("# %-14s n=2^%-2d %s\n", c.kernel, log2(c.n), c.times.summary(1e3, "ms"))
	}
	sortMelem := float64(f.sortN) / largeCases[4].times.median() / 1e6
	fmt.Printf("# stream_gbps %.4g GB/s, sort_melem_per_s %.4g Melem/s, small_call_us %.4g us\n",
		geomean(gbps), sortMelem, geomean(smallMed)*1e6)

	if !traced {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		r.e2e.set("setup_s", medianOf(setups))
		r.e2e.set("ops_per_s", geomean(largeRate))
		r.e2e.set("op_p50_ms", geomean(smallMed)*1e3)
		r.e2e.set("op_tail_ms", geomean(smallP90)*1e3)
		r.e2e.set("peak_rss_mb", rss)
		return r, nil
	}

	smallCalls := 0
	for i, c := range smallCases {
		smallCalls += len(c.times)
		r.layers.set("core."+c.kernel+".small_us", smallMed[i]*1e6)
		r.layers.set("core."+c.kernel+".allocs_per_call", allocsPerCall(c, p, 200))
	}
	for i, c := range largeCases[:4] {
		r.layers.set("core."+c.kernel+".large_gbps", gbps[i])
		r.layers.set("core."+c.kernel+".roofline_frac", gbps[i]/triad)
	}
	r.layers.set("core.sort.large_melem_s", sortMelem)
	r.layers.set("stream.triad_1core_gbps", triad)
	per := func(v uint64) float64 { return float64(v) / float64(smallCalls) }
	r.layers.set("native.steals_per_call", per(sched.LocalSteals))
	r.layers.set("native.parks_per_call", per(sched.Parks))
	r.layers.set("native.wakeups_per_call", per(sched.Wakeups))
	r.layers.set("native.dispatch_empty_us", dispatchEmpty(pool, 3000)*1e6)
	r.layers.set("exec.chunks_per_call.small", chunksPerCall(smallCases, pool))
	r.layers.set("exec.chunks_per_call.large", chunksPerCall(largeCases, pool))
	r.layers.set("trace.overhead_frac", geomean(smallMed)/geomean(untracedSmall)-1)
	return r, nil
}

func log2(n int) int { return int(math.Log2(float64(n))) }

// allocsPerCall is the mean heap allocation count of k calls.
func allocsPerCall(c *kcase, p core.Policy, k int) float64 {
	if c.reset != nil {
		c.reset()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < k; i++ {
		if c.before != nil {
			c.before()
		}
		c.call(p)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(k)
}

// dispatchEmpty is the median time of an empty-body ForChunks over 2^16
// elements: the pool's dispatch cost with no work to hide it.
func dispatchEmpty(pool *native.Pool, k int) float64 {
	var s samples
	body := func(worker, lo, hi int) {}
	for i := 0; i < k; i++ {
		t0 := time.Now()
		pool.ForChunks(1<<16, exec.Auto, body)
		s.add(time.Since(t0))
	}
	return s.median()
}

// countingPool counts the chunks a policy dispatches.
type countingPool struct {
	*native.Pool
	chunks atomic.Int64
}

func (c *countingPool) ForChunks(n int, g exec.Grain, body func(worker, lo, hi int)) {
	c.Pool.ForChunks(n, g, func(worker, lo, hi int) {
		c.chunks.Add(1)
		body(worker, lo, hi)
	})
}

// chunksPerCall is the mean chunk count of one call of each case.
func chunksPerCall(cases []*kcase, pool *native.Pool) float64 {
	cp := &countingPool{Pool: pool}
	p := core.Par(cp)
	for _, c := range cases {
		if c.reset != nil {
			c.reset()
		}
		if c.before != nil {
			c.before()
		}
		c.call(p)
	}
	return float64(cp.chunks.Load()) / float64(len(cases))
}
