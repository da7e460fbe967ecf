// Package counters provides the hardware-performance-counter model of the
// benchmark suite: a counter set mirroring the Likwid/PAPI metrics the
// paper reports (Tables 3 and 4) plus the scheduler events behind backend
// overhead, and the SI formatting of the paper's tables. A benchmark
// records one Set per iteration around exactly the STL call
// (harness.State.RecordCounters), the property pSTL-Bench gets from the
// Likwid Marker API.
//
// In native runs only wall time is measurable (Go exposes no PMU access);
// in simulated runs the discrete-event executor fills in the modeled
// instruction, floating-point, and DRAM-traffic counts.
package counters

import "fmt"

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
