// Package counters provides the hardware-performance-counter model of the
// benchmark suite: a counter set mirroring the Likwid/PAPI metrics the
// paper reports (Tables 3 and 4), and a Likwid-Marker-style region API so
// harness code can bracket exactly the STL call, excluding setup — the
// property pSTL-Bench gets from the Likwid Marker API.
//
// In native runs only wall time is measurable (Go exposes no PMU access);
// in simulated runs the discrete-event executor fills in the modeled
// instruction, floating-point, and DRAM-traffic counts.
package counters

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pstlbench/internal/stats"
)

// Set is one sample of the modeled hardware counters.
type Set struct {
	// Instructions is the total retired instruction count (any kind).
	Instructions float64
	// FPScalar is the number of scalar double-precision FP instructions.
	FPScalar float64
	// FP128 is the number of 128-bit packed FP instructions (2 doubles).
	FP128 float64
	// FP256 is the number of 256-bit packed FP instructions (4 doubles).
	FP256 float64
	// DRAMBytes is the data volume moved to/from DRAM.
	DRAMBytes float64
	// Seconds is the wall time of the region.
	Seconds float64

	// Scheduler counters: the runtime events behind the backend overhead
	// the paper measures (TBB deque steals vs. HPX central-queue traffic).
	// Native pools report them from their deque scheduler
	// (native.Pool.Stats); simulated runs model them in simexec, so both
	// report comparable scheduling statistics.

	// LocalSteals is the number of work items acquired away from their
	// home worker by a worker on the same NUMA node (deque/injector steals
	// natively; off-home task assignments in the simulator). Pools without
	// a topology report every steal here.
	LocalSteals float64
	// RemoteSteals is the number of work items dragged across NUMA nodes —
	// the steals that move first-touched data over the fabric and drive
	// the Table 6 knee.
	RemoteSteals float64
	// Parks is the number of times an idle worker blocked after its spin
	// budget (natively) or a core went idle for the rest of a phase
	// (simulated).
	Parks float64
	// Wakeups is the number of idle workers woken to take on new work.
	Wakeups float64
	// EmptySpins is the number of scavenging rounds that found no runnable
	// work (queue-empty polls).
	EmptySpins float64
}

// Add accumulates o into s.
func (s *Set) Add(o Set) {
	s.Instructions += o.Instructions
	s.FPScalar += o.FPScalar
	s.FP128 += o.FP128
	s.FP256 += o.FP256
	s.DRAMBytes += o.DRAMBytes
	s.Seconds += o.Seconds
	s.LocalSteals += o.LocalSteals
	s.RemoteSteals += o.RemoteSteals
	s.Parks += o.Parks
	s.Wakeups += o.Wakeups
	s.EmptySpins += o.EmptySpins
}

// Sub returns the counter-wise difference s - o, for attributing a live
// counter snapshot pair to the interval between them.
func (s Set) Sub(o Set) Set {
	return Set{
		Instructions: s.Instructions - o.Instructions,
		FPScalar:     s.FPScalar - o.FPScalar,
		FP128:        s.FP128 - o.FP128,
		FP256:        s.FP256 - o.FP256,
		DRAMBytes:    s.DRAMBytes - o.DRAMBytes,
		Seconds:      s.Seconds - o.Seconds,
		LocalSteals:  s.LocalSteals - o.LocalSteals,
		RemoteSteals: s.RemoteSteals - o.RemoteSteals,
		Parks:        s.Parks - o.Parks,
		Wakeups:      s.Wakeups - o.Wakeups,
		EmptySpins:   s.EmptySpins - o.EmptySpins,
	}
}

// Scale multiplies every counter by f and returns the result.
func (s Set) Scale(f float64) Set {
	return Set{
		Instructions: s.Instructions * f,
		FPScalar:     s.FPScalar * f,
		FP128:        s.FP128 * f,
		FP256:        s.FP256 * f,
		DRAMBytes:    s.DRAMBytes * f,
		Seconds:      s.Seconds * f,
		LocalSteals:  s.LocalSteals * f,
		RemoteSteals: s.RemoteSteals * f,
		Parks:        s.Parks * f,
		Wakeups:      s.Wakeups * f,
		EmptySpins:   s.EmptySpins * f,
	}
}

// Steals returns the total steal count regardless of locality.
func (s Set) Steals() float64 { return s.LocalSteals + s.RemoteSteals }

// Flops returns the total double-precision operation count.
func (s Set) Flops() float64 { return s.FPScalar + 2*s.FP128 + 4*s.FP256 }

// GFlopsPerSec returns the double-precision rate in GFLOP/s.
func (s Set) GFlopsPerSec() float64 {
	if s.Seconds == 0 {
		return 0
	}
	return s.Flops() / s.Seconds / 1e9
}

// BandwidthGiBs returns the DRAM bandwidth in GiB/s.
func (s Set) BandwidthGiBs() float64 {
	if s.Seconds == 0 {
		return 0
	}
	return s.DRAMBytes / s.Seconds / (1 << 30)
}

// DataVolumeGiB returns the DRAM data volume in GiB.
func (s Set) DataVolumeGiB() float64 { return s.DRAMBytes / (1 << 30) }

// SI formats a count with T/G/M/K suffixes in the style of the paper's
// tables ("1.72T", "107G").
func SI(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.3gT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Registry accumulates counter sets into named regions, in the style of
// the Likwid Marker API (LIKWID_MARKER_START/STOP). It is safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	regions map[string]*regionData
}

type regionData struct {
	set   Set
	calls int

	// Seconds distribution over samples with a nonzero timing component.
	// Counter-only records (Seconds == 0) accumulate into set without
	// perturbing the timing statistics.
	secCalls int
	secMin   float64
	secMax   float64
	secSum   float64
	secSumSq float64

	// Bounded sample reservoir for quantile estimation: a systematic
	// (every stride-th) subsample of the timed records, decimated in place
	// whenever it fills — deterministic, allocation-bounded, and uniform
	// over the region's lifetime, so long-running regions (a harness
	// benchmark's per-call latency over every timing attempt) keep
	// meaningful p50/p99 without unbounded memory.
	secSamples []float64
	secStride  int // record every stride-th timed sample (power of two)
	secSkip    int // timed samples to skip before the next recorded one
}

// sampleCap bounds the per-region quantile reservoir. At 2048 samples the
// p99 estimate rests on ~20 order statistics, enough for reporting.
const sampleCap = 2048

// RegionStats summarizes the per-call Seconds distribution of a region:
// the min/max spread and the call-count-weighted mean and standard
// deviation over every timed sample recorded into it.
type RegionStats struct {
	// Calls counts the timed samples (records with Seconds > 0); a region
	// may hold more total records if counter-only sets were added.
	Calls int
	// Min, Max, Mean are per-call Seconds.
	Min, Max, Mean float64
	// StdDev is the population standard deviation of per-call Seconds.
	StdDev float64
	// P50 and P99 are per-call Seconds quantiles, estimated from a bounded
	// systematic subsample of the region's timed records (exact until the
	// region exceeds the reservoir capacity).
	P50, P99 float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{regions: make(map[string]*regionData)}
}

// Record adds one sample to the named region.
func (r *Registry) Record(region string, s Set) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.regions[region]
	if d == nil {
		d = &regionData{}
		r.regions[region] = d
	}
	d.set.Add(s)
	d.calls++
	if s.Seconds > 0 {
		if d.secCalls == 0 || s.Seconds < d.secMin {
			d.secMin = s.Seconds
		}
		if s.Seconds > d.secMax {
			d.secMax = s.Seconds
		}
		d.secSum += s.Seconds
		d.secSumSq += s.Seconds * s.Seconds
		d.secCalls++
		d.sample(s.Seconds)
	}
}

// sample feeds one timed record into the region's quantile reservoir.
func (d *regionData) sample(seconds float64) {
	if d.secStride == 0 {
		d.secStride = 1
	}
	if d.secSkip > 0 {
		d.secSkip--
		return
	}
	if len(d.secSamples) >= sampleCap {
		// Decimate in place: keep every other sample and double the
		// stride, so the reservoir stays a uniform systematic subsample.
		kept := d.secSamples[:0]
		for i := 0; i < len(d.secSamples); i += 2 {
			kept = append(kept, d.secSamples[i])
		}
		d.secSamples = kept
		d.secStride *= 2
	}
	d.secSamples = append(d.secSamples, seconds)
	d.secSkip = d.secStride - 1
}

// Region returns the accumulated counters and call count of a region.
func (r *Registry) Region(region string) (Set, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.regions[region]
	if d == nil {
		return Set{}, 0
	}
	return d.set, d.calls
}

// Stats returns the per-call Seconds distribution of a region. Unknown
// regions — and regions holding only counter-only records — return the
// zero RegionStats.
func (r *Registry) Stats(region string) RegionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.regions[region]
	if d == nil || d.secCalls == 0 {
		return RegionStats{}
	}
	n := float64(d.secCalls)
	mean := d.secSum / n
	sorted := append([]float64(nil), d.secSamples...)
	sort.Float64s(sorted)
	p50 := stats.PercentileSorted(sorted, 0.50)
	p99 := stats.PercentileSorted(sorted, 0.99)
	if d.secCalls == 1 {
		// A single sample has no spread; short-circuit so no rounding path
		// can ever surface NaN to consumers (the tuner's stop condition
		// reads this blind).
		return RegionStats{Calls: 1, Min: d.secMin, Max: d.secMax, Mean: mean, P50: p50, P99: p99}
	}
	// Population variance via the sum-of-squares identity; clamp the
	// cancellation error for near-constant samples.
	variance := d.secSumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return RegionStats{
		Calls:  d.secCalls,
		Min:    d.secMin,
		Max:    d.secMax,
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		P50:    p50,
		P99:    p99,
	}
}

// Regions returns the region names in sorted order.
func (r *Registry) Regions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.regions))
	for n := range r.regions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset clears all regions.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.regions = make(map[string]*regionData)
}
