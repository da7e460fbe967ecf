package simexec

import (
	"testing"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/memsys"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/trace"
)

// findFracs mirrors the paper's random-element search: find results are
// averaged over hit positions.
var findFracs = []float64{0.05, 0.17, 0.29, 0.41, 0.53, 0.65, 0.77, 0.89}

func avgSeconds(cfg Config) float64 {
	if cfg.Workload.Op != backend.OpFind {
		return Run(cfg).Seconds
	}
	tot := 0.0
	for _, f := range findFracs {
		c := cfg
		c.Workload.HitFrac = f
		tot += Run(c).Seconds
	}
	return tot / float64(len(findFracs))
}

func wl(op backend.Op, n int64) skeleton.Workload {
	return skeleton.Workload{Op: op, N: n, ElemBytes: 8, Kit: 1, HitFrac: 0.5}
}

func speedup(m *machine.Machine, b *backend.Backend, op backend.Op, n int64, threads int) float64 {
	seq := avgSeconds(Config{Machine: m, Backend: backend.GCCSeq(), Workload: wl(op, n), Threads: 1, Alloc: allocsim.FirstTouch})
	par := avgSeconds(Config{Machine: m, Backend: b, Workload: wl(op, n), Threads: threads, Alloc: allocsim.FirstTouch})
	return seq / par
}

// TestTable5GoldenShapes pins the qualitative findings of the paper's
// Table 5: per machine and operation, who wins, who loses, and the rough
// magnitude of the winner.
func TestTable5GoldenShapes(t *testing.T) {
	n := int64(1) << 30
	type sp map[string]float64
	speedups := func(m *machine.Machine, op backend.Op) sp {
		out := sp{}
		for _, b := range backend.Parallel() {
			out[b.ID] = speedup(m, b, op, n, m.Cores)
		}
		return out
	}

	a := machine.MachA()

	// for_each kit=1 on Mach A: NVC-OMP fastest, HPX slowest (Fig 2/3,
	// Table 5), both by a clear margin.
	fe := speedups(a, backend.OpForEach)
	if !(fe["NVC-OMP"] > fe["GCC-TBB"] && fe["NVC-OMP"] > fe["GCC-GNU"]) {
		t.Errorf("for_each: NVC-OMP not fastest: %v", fe)
	}
	if !(fe["GCC-HPX"] < fe["GCC-TBB"]*0.7) {
		t.Errorf("for_each: HPX not clearly slowest: %v", fe)
	}
	if fe["GCC-TBB"] < 10 || fe["GCC-TBB"] > 22 {
		t.Errorf("for_each TBB speedup %v outside [10,22] (paper: 14.2)", fe["GCC-TBB"])
	}

	// reduce on Mach A: all backends around 10, HPX trailing (~7).
	rd := speedups(a, backend.OpReduce)
	for id, s := range rd {
		if id == "GCC-HPX" {
			if s < 4 || s > 11 {
				t.Errorf("reduce HPX speedup %v outside [4,11] (paper: 7.3)", s)
			}
			continue
		}
		if s < 7 || s > 16 {
			t.Errorf("reduce %s speedup %v outside [7,16] (paper: ~10-11)", id, s)
		}
	}

	// inclusive_scan: GNU and NVC-OMP fall back to sequential
	// (speedup ~<=1); TBB leads at ~4.5.
	sc := speedups(a, backend.OpInclusiveScan)
	if sc["GCC-GNU"] > 1.1 || sc["NVC-OMP"] > 1.1 {
		t.Errorf("scan: GNU/NVC should be sequential fallbacks: %v", sc)
	}
	if sc["GCC-TBB"] < 2.5 || sc["GCC-TBB"] > 7 {
		t.Errorf("scan TBB speedup %v outside [2.5,7] (paper: 4.5)", sc["GCC-TBB"])
	}

	// find: memory-bound; no backend exceeds ~BWall/BW1 (the STREAM
	// ratio), per Section 5.3.
	fd := speedups(a, backend.OpFind)
	streamRatio := a.BWAllCores / a.BW1Core
	for id, s := range fd {
		if s > streamRatio*1.05 {
			t.Errorf("find %s speedup %v exceeds STREAM ratio %v", id, s, streamRatio)
		}
	}

	// sort: GNU's multiway mergesort is the clear winner (Table 5: 25.4
	// vs ~10 for the rest).
	so := speedups(a, backend.OpSort)
	if !(so["GCC-GNU"] > 1.8*so["GCC-TBB"]) {
		t.Errorf("sort: GNU not clearly fastest: %v", so)
	}

	// Mach B: NVC-OMP for_each stays strong (15.0) while TBB/GNU drop to
	// 6-8 and HPX is worst.
	b := machine.MachB()
	feb := speedups(b, backend.OpForEach)
	if !(feb["NVC-OMP"] > 1.5*feb["GCC-TBB"]) {
		t.Errorf("for_each Mach B: NVC-OMP should lead clearly: %v", feb)
	}
	if feb["GCC-TBB"] < 3 || feb["GCC-TBB"] > 10 {
		t.Errorf("for_each Mach B TBB %v outside [3,10] (paper: 6.1)", feb["GCC-TBB"])
	}
	// find on Mach B collapses for NVC (chunk-granular cancellation).
	fdb := speedups(b, backend.OpFind)
	if fdb["NVC-OMP"] > 2.5 {
		t.Errorf("find Mach B NVC %v, paper: 1.4", fdb["NVC-OMP"])
	}
}

// TestForEachHighIntensityNearIdeal pins the paper's k_it=1000 result:
// with high computational intensity every backend approaches ideal
// speedup (Table 5: 32.0-32.5 on 32 cores).
func TestForEachHighIntensityNearIdeal(t *testing.T) {
	a := machine.MachA()
	w := skeleton.Workload{Op: backend.OpForEach, N: 1 << 30, ElemBytes: 8, Kit: 1000}
	seq := Run(Config{Machine: a, Backend: backend.GCCSeq(), Workload: w, Threads: 1, Alloc: allocsim.FirstTouch}).Seconds
	for _, b := range backend.Parallel() {
		s := seq / Run(Config{Machine: a, Backend: b, Workload: w, Threads: 32, Alloc: allocsim.FirstTouch}).Seconds
		if s < 25 || s > 33 {
			t.Errorf("%s kit=1000 speedup %v outside [25,33] (paper: 32.0-32.5)", b.ID, s)
		}
	}
}

// TestProblemScalingCrossover pins Fig. 2's observation: sequential wins
// below ~2^10 and parallel wins beyond ~2^16-2^18.
func TestProblemScalingCrossover(t *testing.T) {
	a := machine.MachA()
	for _, b := range []*backend.Backend{backend.GCCTBB(), backend.NVCOMP()} {
		seqT := func(n int64) float64 {
			return Run(Config{Machine: a, Backend: backend.GCCSeq(), Workload: wl(backend.OpForEach, n), Threads: 1, Alloc: allocsim.FirstTouch}).Seconds
		}
		parT := func(n int64) float64 {
			return Run(Config{Machine: a, Backend: b, Workload: wl(backend.OpForEach, n), Threads: 32, Alloc: allocsim.FirstTouch}).Seconds
		}
		if parT(1<<8) < seqT(1<<8) {
			t.Errorf("%s: parallel should lose at 2^8", b.ID)
		}
		if parT(1<<20) > seqT(1<<20) {
			t.Errorf("%s: parallel should win at 2^20", b.ID)
		}
	}
}

// TestGNUSeqFallbackThreshold pins Section 5.2/5.3: GNU runs sequentially
// below ~2^10 elements for for_each (2^9 for find).
func TestGNUSeqFallbackThreshold(t *testing.T) {
	a := machine.MachA()
	gnu := backend.GCCGNU()
	small := Run(Config{Machine: a, Backend: gnu, Workload: wl(backend.OpForEach, 1<<9), Threads: 32, Alloc: allocsim.FirstTouch})
	if small.Parallel {
		t.Error("GNU for_each at 2^9 should be sequential")
	}
	big := Run(Config{Machine: a, Backend: gnu, Workload: wl(backend.OpForEach, 1<<11), Threads: 32, Alloc: allocsim.FirstTouch})
	if !big.Parallel {
		t.Error("GNU for_each at 2^11 should be parallel")
	}
}

// TestHPXSortThreshold pins Section 5.6: HPX sorts on a single thread for
// inputs of 2^15 or smaller.
func TestHPXSortThreshold(t *testing.T) {
	a := machine.MachA()
	hpx := backend.GCCHPX()
	r := Run(Config{Machine: a, Backend: hpx, Workload: wl(backend.OpSort, 1<<15), Threads: 32, Alloc: allocsim.FirstTouch})
	if r.Parallel {
		t.Error("HPX sort at 2^15 should be sequential")
	}
	r = Run(Config{Machine: a, Backend: hpx, Workload: wl(backend.OpSort, 1<<16), Threads: 32, Alloc: allocsim.FirstTouch})
	if !r.Parallel {
		t.Error("HPX sort at 2^16 should be parallel")
	}
}

// TestCountersMatchTable3 pins the modeled instruction counts against the
// paper's Table 3 (for_each, k_it=1, 100 calls of 2^30 on Mach A).
func TestCountersMatchTable3(t *testing.T) {
	a := machine.MachA()
	want := map[string]float64{ // instructions per element
		"GCC-TBB": 16.0, "GCC-GNU": 22.4, "GCC-HPX": 35.7,
		"ICC-TBB": 14.4, "NVC-OMP": 20.9,
	}
	n := int64(1) << 30
	for _, b := range backend.Parallel() {
		r := Run(Config{Machine: a, Backend: b, Workload: wl(backend.OpForEach, n), Threads: 32, Alloc: allocsim.FirstTouch})
		got := r.Counters.Instructions / float64(n)
		if got < want[b.ID]*0.93 || got > want[b.ID]*1.07 {
			t.Errorf("%s: %.2f instr/elem, want ~%.1f (Table 3)", b.ID, got, want[b.ID])
		}
		// FP scalar: exactly one flop per element for every backend
		// (Table 3: 107G per 100 calls).
		if fp := r.Counters.FPScalar / float64(n); fp < 0.99 || fp > 1.01 {
			t.Errorf("%s: %.2f scalar flops/elem, want 1", b.ID, fp)
		}
	}
}

// TestCountersMatchTable4 pins reduce's counters: ICC and HPX vectorize
// (FP256), the others are scalar (Table 4).
func TestCountersMatchTable4(t *testing.T) {
	a := machine.MachA()
	n := int64(1) << 30
	for _, b := range backend.Parallel() {
		r := Run(Config{Machine: a, Backend: b, Workload: wl(backend.OpReduce, n), Threads: 32, Alloc: allocsim.FirstTouch})
		vectorized := b.ID == "ICC-TBB" || b.ID == "GCC-HPX"
		if vectorized {
			if r.Counters.FP256 == 0 || r.Counters.FPScalar > r.Counters.FP256 {
				t.Errorf("%s: expected 256-bit packed reduction (Table 4)", b.ID)
			}
		} else if r.Counters.FP256 != 0 {
			t.Errorf("%s: unexpected vectorization", b.ID)
		}
	}
	// HPX executes by far the most instructions (Table 4: 1.74T vs
	// 107-295G).
	hpx := Run(Config{Machine: a, Backend: backend.GCCHPX(), Workload: wl(backend.OpReduce, n), Threads: 32, Alloc: allocsim.FirstTouch})
	tbb := Run(Config{Machine: a, Backend: backend.GCCTBB(), Workload: wl(backend.OpReduce, n), Threads: 32, Alloc: allocsim.FirstTouch})
	if hpx.Counters.Instructions < 5*tbb.Counters.Instructions {
		t.Errorf("HPX should execute >5x TBB's instructions (Table 4: ~9x)")
	}
}

// TestAllocatorEffectsFig1 pins Figure 1's shape: first-touch helps
// for_each (k_it=1) and reduce substantially, is neutral for sort and
// for_each k_it=1000, and hurts find and inclusive_scan.
func TestAllocatorEffectsFig1(t *testing.T) {
	a := machine.MachA()
	n := int64(1) << 30
	gain := func(b *backend.Backend, op backend.Op, kit int) float64 {
		w := skeleton.Workload{Op: op, N: n, ElemBytes: 8, Kit: kit, HitFrac: 0.41}
		def := avgSeconds(Config{Machine: a, Backend: b, Workload: w, Threads: 32, Alloc: allocsim.Default})
		ft := avgSeconds(Config{Machine: a, Backend: b, Workload: w, Threads: 32, Alloc: allocsim.FirstTouch})
		return def/ft - 1 // >0: first-touch faster
	}
	tbb := backend.GCCTBB()
	if g := gain(tbb, backend.OpForEach, 1); g < 0.2 {
		t.Errorf("for_each kit=1 first-touch gain %v, want >20%% (paper: up to 63%%)", g)
	}
	if g := gain(tbb, backend.OpReduce, 1); g < 0.2 {
		t.Errorf("reduce first-touch gain %v, want >20%% (paper: up to 50%%)", g)
	}
	if g := gain(tbb, backend.OpForEach, 1000); g > 0.1 || g < -0.1 {
		t.Errorf("for_each kit=1000 gain %v, want ~0", g)
	}
	if g := gain(tbb, backend.OpFind, 1); g > -0.02 {
		t.Errorf("find first-touch gain %v, want negative (paper: up to -24%%)", g)
	}
	if g := gain(backend.NVCOMP(), backend.OpInclusiveScan, 1); g > -0.02 {
		t.Errorf("NVC scan first-touch gain %v, want negative (paper: -19%%)", g)
	}
}

// TestHPXUsesOwnAllocator: the HPX backend ignores the Alloc setting
// (Section 5.1: HPX has its own memory allocation strategy).
func TestHPXUsesOwnAllocator(t *testing.T) {
	a := machine.MachA()
	hpx := backend.GCCHPX()
	d := Run(Config{Machine: a, Backend: hpx, Workload: wl(backend.OpReduce, 1<<28), Threads: 32, Alloc: allocsim.Default})
	f := Run(Config{Machine: a, Backend: hpx, Workload: wl(backend.OpReduce, 1<<28), Threads: 32, Alloc: allocsim.FirstTouch})
	if d.Seconds != f.Seconds {
		t.Errorf("HPX timing depends on allocator setting: %v vs %v", d.Seconds, f.Seconds)
	}
}

// TestSimInvariants: basic sanity over the whole config space.
func TestSimInvariants(t *testing.T) {
	a := machine.MachA()
	for _, b := range backend.All() {
		if b.IsGPU() {
			continue
		}
		for _, op := range backend.Ops() {
			var prev float64
			for _, threads := range []int{1, 2, 4, 8, 16, 32} {
				r := Run(Config{Machine: a, Backend: b, Workload: wl(op, 1<<24), Threads: threads, Alloc: allocsim.FirstTouch})
				if r.Seconds <= 0 {
					t.Fatalf("%s/%s t=%d: non-positive time", b.ID, op, threads)
				}
				if r.Counters.Instructions <= 0 {
					t.Fatalf("%s/%s t=%d: no instructions", b.ID, op, threads)
				}
				// Speedup over the same backend's 1-thread run must not
				// exceed the thread count — except sort, where the
				// 1-thread baseline is a different algorithm (introsort
				// vs mergesort) and genuine algorithmic superlinearity
				// exists (the paper's GNU sort reaches 66x on 128
				// cores).
				if threads == 1 {
					prev = r.Seconds
				} else if op != backend.OpSort && prev/r.Seconds > float64(threads)*1.12 {
					// 12% slack: backends whose parallel code moves
					// slightly less DRAM traffic than their sequential
					// fallback (MemFactor < 1) are mildly superlinear.
					t.Fatalf("%s/%s: superlinear self-speedup %v at %d threads", b.ID, op, prev/r.Seconds, threads)
				}
			}
		}
	}
}

// TestSeqBackendSingleCore: the sequential baseline never parallelizes.
func TestSeqBackendSingleCore(t *testing.T) {
	a := machine.MachA()
	for _, op := range backend.Ops() {
		r := Run(Config{Machine: a, Backend: backend.GCCSeq(), Workload: wl(op, 1<<22), Threads: 32, Alloc: allocsim.Default})
		if r.Parallel {
			t.Errorf("%s: GCC-SEQ ran in parallel", op)
		}
	}
}

// TestZeroSizeWorkload returns zero time without panicking.
func TestZeroSizeWorkload(t *testing.T) {
	a := machine.MachA()
	r := Run(Config{Machine: a, Backend: backend.GCCTBB(), Workload: wl(backend.OpReduce, 0), Threads: 32})
	if r.Seconds != 0 {
		t.Fatalf("zero-size time %v", r.Seconds)
	}
}

// TestDeterminism: the simulator is a pure function of its config.
func TestDeterminism(t *testing.T) {
	a := machine.MachC()
	cfg := Config{Machine: a, Backend: backend.GCCHPX(), Workload: wl(backend.OpSort, 1<<26), Threads: 128, Alloc: allocsim.FirstTouch}
	r1 := Run(cfg)
	r2 := Run(cfg)
	if r1.Seconds != r2.Seconds || r1.Counters != r2.Counters {
		t.Fatal("simulation is not deterministic")
	}
}

// TestCacheLevelsAffectTiming: a cache-resident problem runs much faster
// per element than a DRAM-resident one for a memory-bound op.
func TestCacheLevelsAffectTiming(t *testing.T) {
	a := machine.MachA()
	small := Run(Config{Machine: a, Backend: backend.GCCTBB(), Workload: wl(backend.OpReduce, 1<<21), Threads: 32, Alloc: allocsim.FirstTouch})
	big := Run(Config{Machine: a, Backend: backend.GCCTBB(), Workload: wl(backend.OpReduce, 1<<30), Threads: 32, Alloc: allocsim.FirstTouch})
	if small.Level == memsys.LevelDRAM {
		t.Fatalf("2^21 doubles should be cache-resident, got %v", small.Level)
	}
	if big.Level != memsys.LevelDRAM {
		t.Fatalf("2^30 doubles should be DRAM, got %v", big.Level)
	}
	perElemSmall := small.Seconds / float64(1<<21)
	perElemBig := big.Seconds / float64(1<<30)
	if perElemBig < perElemSmall {
		t.Errorf("DRAM per-element time (%v) should exceed cache-resident (%v)", perElemBig, perElemSmall)
	}
}

// TestTraceCoversSchedule: the tracer's chunk spans account for every
// task, stay within the invocation, and never overlap on one core.
func TestTraceCoversSchedule(t *testing.T) {
	tr := trace.NewVirtual(8, trace.DefaultCapacity)
	r := Run(Config{
		Machine: machine.MachA(), Backend: backend.GCCTBB(),
		Workload: wl(backend.OpSort, 1<<22),
		Threads:  8, Alloc: allocsim.FirstTouch,
		Tracer: tr,
	})
	spans := chunkSpans(tr)
	end := int64(r.Seconds * 1e9)
	for _, s := range spans {
		if s.Start < 0 || s.End > end || s.End < s.Start {
			t.Fatalf("span out of bounds: %+v (total %d ns)", s, end)
		}
	}
	for i, x := range spans {
		for _, y := range spans[i+1:] {
			if x.core == y.core && x.Start < y.End && y.Start < x.End {
				t.Fatalf("core %d runs two tasks at once: %+v %+v", x.core, x, y)
			}
		}
	}
	// Sort on 8 threads: leaf phase + 3 merge rounds, 8 tasks each.
	if len(spans) != 32 {
		t.Fatalf("trace has %d chunk spans, want 32", len(spans))
	}
}

// TestTraceMarksFindTruncation: early-exit cancellation cuts every task
// still running when the hit is found, so the losers' spans end at the
// winner's end instead of being dropped.
func TestTraceMarksFindTruncation(t *testing.T) {
	w := wl(backend.OpFind, 1<<22)
	w.HitFrac = 0.6
	tr := trace.NewVirtual(8, trace.DefaultCapacity)
	Run(Config{Machine: machine.MachA(), Backend: backend.GCCTBB(), Workload: w, Threads: 8, Alloc: allocsim.FirstTouch, Tracer: tr})
	spans := chunkSpans(tr)
	last := int64(0)
	for _, s := range spans {
		last = max(last, s.End)
	}
	cut := map[int]bool{}
	for _, s := range spans {
		if s.End == last {
			cut[s.core] = true
		}
	}
	if len(cut) < 2 {
		t.Fatalf("only %d core(s) end at the find's exit, want the winner and truncated losers", len(cut))
	}
}

// TestExtensionOpsSimulate: the four extension operations produce sane
// results across backends — memory-bound ceilings for the streaming ops,
// reduce-like behaviour for the read-only reductions.
func TestExtensionOpsSimulate(t *testing.T) {
	a := machine.MachA()
	for _, op := range backend.ExtOps() {
		seq := Run(Config{Machine: a, Backend: backend.GCCSeq(), Workload: wl(op, 1<<28), Threads: 1, Alloc: allocsim.FirstTouch})
		if seq.Seconds <= 0 || seq.Parallel {
			t.Fatalf("%s: bad sequential run", op)
		}
		for _, b := range backend.Parallel() {
			r := Run(Config{Machine: a, Backend: b, Workload: wl(op, 1<<28), Threads: 32, Alloc: allocsim.FirstTouch})
			s := seq.Seconds / r.Seconds
			if !r.Parallel {
				t.Fatalf("%s/%s: not parallel", b.ID, op)
			}
			if s < 1.5 || s > 32*1.2 {
				t.Errorf("%s/%s: speedup %v implausible", b.ID, op, s)
			}
		}
	}
	// copy and transform are pure streaming: their speedup cannot exceed
	// the STREAM ratio by much.
	for _, op := range []backend.Op{backend.OpCopy, backend.OpTransform} {
		seq := Run(Config{Machine: a, Backend: backend.GCCSeq(), Workload: wl(op, 1<<28), Threads: 1, Alloc: allocsim.FirstTouch})
		r := Run(Config{Machine: a, Backend: backend.GCCTBB(), Workload: wl(op, 1<<28), Threads: 32, Alloc: allocsim.FirstTouch})
		if s := seq.Seconds / r.Seconds; s > a.BWAllCores/a.BW1Core*1.25 {
			t.Errorf("%s: streaming speedup %v exceeds STREAM ratio", op, s)
		}
	}
}
