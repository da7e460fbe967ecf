// Package simexec is the discrete-event performance simulator: it executes
// an algorithm skeleton (package skeleton) on a simulated machine (package
// machine) under a backend's scheduling strategy and cost sheet (package
// backend), producing virtual wall time and modeled hardware counters.
//
// The engine advances an epoch-based processor-sharing simulation: between
// events (task starts and completions) the set of running tasks is
// constant, each task's progress rate is min(compute rate, share of the
// memory system as allocated by memsys.Solve), and time advances to the
// next event. Early-exit phases (find) end when the task containing the
// hit completes, truncating the other tasks mid-flight — exactly the
// cancellation behaviour whose overhead the paper measures.
package simexec

import (
	"fmt"
	"math"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/counters"
	"pstlbench/internal/exec"
	"pstlbench/internal/machine"
	"pstlbench/internal/memsys"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/trace"
)

// Config describes one simulated benchmark invocation.
type Config struct {
	Machine  *machine.Machine
	Backend  *backend.Backend
	Workload skeleton.Workload
	// Threads is the number of cores used (OMP_NUM_THREADS /
	// --hpx:threads in the paper's setup).
	Threads int
	// Alloc selects the allocation strategy. The HPX backend always uses
	// its own (first-touch) allocator, as in the paper.
	Alloc allocsim.Strategy

	// GPU options (NVC-CUDA backend only).
	// TransferBack forces a device-to-host transfer after each call
	// (Figures 8 and 9a).
	TransferBack bool
	// DataResident marks the input as already present in device memory
	// from a previous chained call (Figure 9b).
	DataResident bool

	// Trace records the task schedule (which core ran which task when)
	// into Result.Trace — the raw material for Gantt-style schedule
	// inspection.
	Trace bool

	// Tracer, when non-nil, receives the schedule as typed events in
	// virtual time: one track per simulated core (chunk spans carrying
	// element ranges, steal/wakeup/park instants), stamped relative to the
	// tracer's cursor so successive invocations stack end-to-end on one
	// timeline. Must be a virtual-time tracer with at least Threads tracks.
	Tracer *trace.Tracer
}

// TaskSpan is one scheduled task execution in a trace.
type TaskSpan struct {
	Phase, Task, Core int
	// Start and End are virtual times relative to the invocation start.
	Start, End float64
	// Truncated marks tasks cancelled by an early-exit phase end.
	Truncated bool
}

// Result is the outcome of one simulated invocation.
type Result struct {
	// Seconds is the virtual wall time of one call.
	Seconds float64
	// Counters are the modeled hardware counters of one call.
	Counters counters.Set
	// Level is the memory level that served the working set.
	Level memsys.Level
	// Parallel reports whether the backend actually ran in parallel
	// (false for sequential fallbacks).
	Parallel bool
	// Trace holds the task schedule when Config.Trace is set.
	Trace []TaskSpan
}

// epsElems is the completion tolerance of the epoch loop.
const epsElems = 1e-6

// Run simulates one invocation and returns its timing and counters.
func Run(cfg Config) Result {
	if cfg.Machine == nil || cfg.Backend == nil {
		panic("simexec: nil machine or backend")
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Threads > cfg.Machine.Cores {
		cfg.Threads = cfg.Machine.Cores
	}
	if cfg.Backend.IsGPU() {
		return runGPU(cfg)
	}
	if cfg.Workload.N == 0 {
		return Result{}
	}

	phases, parallel := skeleton.Build(cfg.Workload, cfg.Backend, cfg.Threads, cfg.Machine)
	return runPhaseList(cfg, phases, workingSet(cfg.Workload), parallel)
}

// RunChain simulates the element-wise chain c over cfg.Workload (whose Op
// selects the backend traits), either staged — one barrier-separated pass
// per stage with materialized intermediates — or fused into one
// chunk-granular pass. The phases come from skeleton.StagedChainPhases /
// FusedChainPhases and the memory level from skeleton.ChainWorkingSet.
func RunChain(cfg Config, c skeleton.Chain, fused bool) Result {
	build := skeleton.StagedChainPhases
	if fused {
		build = skeleton.FusedChainPhases
	}
	phases, parallel := build(cfg.Workload, c, cfg.Backend, cfg.Threads, cfg.Machine)
	return runPhases(cfg, phases, skeleton.ChainWorkingSet(cfg.Workload, c, fused), parallel)
}

// runPhases simulates an explicit phase list instead of deriving one from
// the workload's op. wsBytes is the repeatedly-touched working set that
// picks the serving memory level; parallel selects cfg.Threads cores
// versus one. The workload's Op only selects the backend traits (overhead
// sheet) applied to every phase.
func runPhases(cfg Config, phases []skeleton.Phase, wsBytes int64, parallel bool) Result {
	if cfg.Machine == nil || cfg.Backend == nil {
		panic("simexec: nil machine or backend")
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Threads > cfg.Machine.Cores {
		cfg.Threads = cfg.Machine.Cores
	}
	if len(phases) == 0 {
		return Result{}
	}
	return runPhaseList(cfg, phases, wsBytes, parallel)
}

// runPhaseList is the shared engine body: memory level, page placement,
// and the phase loop.
func runPhaseList(cfg Config, phases []skeleton.Phase, ws int64, parallel bool) Result {
	tr := cfg.Backend.Traits(cfg.Workload.Op)

	coresUsed := cfg.Threads
	if !parallel {
		coresUsed = 1
	}
	level := memsys.CacheLevel(cfg.Machine, ws, coresUsed)

	alloc := cfg.Alloc
	if cfg.Backend.Runtime == "HPX" {
		alloc = allocsim.FirstTouch // HPX brings its own NUMA allocator
	} else if alloc == allocsim.Default && tr.DefaultAllocDistributed {
		// The op's setup code (shuffling, parallel generation) already
		// faulted the pages in parallel: the default allocator leaves
		// them distributed, minus the custom allocator's exact
		// chunk-to-thread alignment (and minus its penalty cases).
		alloc = allocsim.FirstTouch
	}
	placement := allocsim.Placement(cfg.Machine, cfg.Threads, alloc)

	st := newSimTrace(cfg.Tracer, cfg.Threads)

	var total float64
	var ctr counters.Set
	var spans []TaskSpan
	for pi, ph := range phases {
		var sink *[]TaskSpan
		if cfg.Trace {
			sink = &spans
		}
		t := runPhase(cfg, ph, tr, parallel, level, placement, alloc, &ctr, pi, total, sink, st)
		total += t
	}
	ctr.Seconds = total
	// Advance the shared virtual clock past this invocation so the next
	// simulated call starts where this one ended on the same timeline.
	if st != nil {
		st.tr.Advance(int64(total * 1e9))
	}
	return Result{Seconds: total, Counters: ctr, Level: level, Parallel: parallel, Trace: spans}
}

// simTrace adapts the phase simulation to a virtual-time tracer: it fixes
// the invocation's origin at the tracer's current cursor and converts
// phase-relative seconds into absolute virtual nanoseconds. A nil *simTrace
// disables every emission.
type simTrace struct {
	tr   *trace.Tracer
	base int64 // cursor at invocation start, ns
}

func newSimTrace(tr *trace.Tracer, threads int) *simTrace {
	if tr == nil {
		return nil
	}
	if !tr.Virtual() {
		panic("simexec: Config.Tracer must be a virtual-time tracer (trace.NewVirtual)")
	}
	if tr.Tracks() < threads {
		panic(fmt.Sprintf("simexec: tracer has %d tracks, need >= %d (one per core)", tr.Tracks(), threads))
	}
	return &simTrace{tr: tr, base: tr.Now()}
}

// at converts an invocation-relative time in seconds to virtual ns.
func (st *simTrace) at(sec float64) int64 { return st.base + int64(sec*1e9) }

func (st *simTrace) buf(core int) *trace.Buf {
	if st == nil {
		return nil
	}
	return st.tr.Buf(core)
}

// workingSet returns the bytes the benchmark loop touches repeatedly.
func workingSet(w skeleton.Workload) int64 {
	ws := w.N * int64(w.ElemBytes)
	switch w.Op {
	case backend.OpInclusiveScan, backend.OpSort, backend.OpTransform, backend.OpCopy:
		// These stream a separate output range (or a merge buffer).
		return 2 * ws
	default:
		return ws
	}
}

// runTask is the mutable state of one task during a phase simulation.
type runTask struct {
	remaining float64 // elements left
	startAt   float64 // when compute begins (after spawn costs)
	core      int
	home      int // core whose band holds the task
	idx       int
	running   bool
	done      bool

	effInstr   float64   // instructions per element after SIMD
	flops      float64   // FP ops per element
	bytes      float64   // memory traffic per element
	lanes      int       // SIMD lanes applied (for FP counter attribution)
	traffic    []float64 // NUMA distribution of its traffic
	cpuRate    float64   // elements/s when not memory limited
	cpuRateNow float64   // achieved rate in the current epoch
	earlyExit  bool
}

// runPhase simulates one phase and returns its duration, accumulating
// counters into ctr.
func runPhase(cfg Config, ph skeleton.Phase, tr backend.OpTraits, parallel bool,
	level memsys.Level, placement memsys.Placement, alloc allocsim.Strategy,
	ctr *counters.Set, phaseIdx int, phaseOffset float64, sink *[]TaskSpan,
	st *simTrace) float64 {

	m := cfg.Machine
	b := cfg.Backend
	threads := cfg.Threads
	if !parallel {
		threads = 1
	}

	// Effective per-element instruction cost: the backend's overhead is
	// scalar; the intrinsic work may vectorize.
	lanes := tr.SIMDLanes
	if lanes < 1 {
		lanes = 1
	}
	ipc := m.IPC
	freq := m.FreqGHz
	if !parallel {
		if b.SeqIPCFactor > 0 {
			ipc *= b.SeqIPCFactor
		}
		freq = m.SeqFreqGHz() // single-threaded runs boost
	}
	scalarRate := freq * 1e9 * ipc
	// The backend's scheduling/abstraction instructions retire at their
	// own rate: IPCFactor > 1 models overhead code that pipelines well
	// (independent bookkeeping), < 1 models serializing abstractions
	// (HPX's future machinery). Counters report raw instruction counts;
	// only the *time* cost of the overhead is scaled.
	overheadIPC := tr.IPCFactor
	if overheadIPC <= 0 {
		overheadIPC = 1
	}
	// Backend overhead applies to parallel execution and to the plain
	// loop of a backend that has no parallel implementation of the op
	// (GCC-SEQ's tighter codegen is a negative overhead). A sequential
	// fallback below the runtime's threshold is the plain loop: no
	// overhead.
	applyOverhead := parallel || !tr.ParallelImpl

	memFactor := tr.MemFactor
	if memFactor <= 0 {
		memFactor = 1
	}
	if !parallel && tr.ParallelImpl {
		// Below-threshold fallback runs the plain sequential loop, whose
		// traffic does not carry the parallel implementation's extra
		// passes.
		memFactor = 1
	}

	// Element prefix over the phase's tasks: task i covers elements
	// [elemLo[i], elemLo[i+1]) of the phase's iteration space — the lo/hi
	// annotation its chunk spans carry in the trace.
	var elemLo []int64
	if st != nil {
		elemLo = make([]int64, len(ph.Tasks)+1)
		for i, t := range ph.Tasks {
			elemLo[i+1] = elemLo[i] + int64(math.Round(t.Elems))
		}
	}

	tasks := make([]*runTask, len(ph.Tasks))
	for i, t := range ph.Tasks {
		intrinsic := t.InstrPerElem
		l := 1
		if t.Vectorizable && lanes > 1 {
			intrinsic /= float64(lanes)
			l = lanes
		}
		eff, costInstr := intrinsic, intrinsic
		if applyOverhead {
			eff += tr.InstrOverheadPerElem
			costInstr += tr.InstrOverheadPerElem / overheadIPC
		}
		if eff <= 0.5 {
			eff = 0.5
		}
		if costInstr <= 0.5 {
			costInstr = 0.5
		}
		rt := &runTask{
			idx:       i,
			remaining: t.Elems,
			effInstr:  eff,
			flops:     t.FlopsPerElem,
			bytes:     t.BytesPerElem * memFactor,
			lanes:     l,
			cpuRate:   scalarRate / costInstr,
			earlyExit: i == ph.EarlyExit,
		}
		tasks[i] = rt
	}

	forkCost := 0.0
	if parallel && len(tasks) > 1 {
		forkCost = b.ForkBase + b.ForkPerThread*float64(threads)
	}

	// Scheduling state.
	coreFreeAt := make([]float64, threads)
	coreTask := make([]*runTask, threads)
	queueAt := 0.0
	next := 0 // next unassigned task (FIFO in chunk order)

	// Home bands: core c owns the contiguous chunk range bands.At(c), the
	// split the native stealing pool gives its workers. A task's home
	// classifies dispatches as local or remote steals; under NUMASteal it
	// also drives the locality-ordered victim scan and the traffic
	// attribution.
	bands := exec.Static.Chunks(len(tasks), threads)
	for c := 0; c < bands.Len(); c++ {
		band := bands.At(c)
		for ti := band.Lo; ti < band.Hi; ti++ {
			tasks[ti].home = c
		}
	}
	numaSteal := b.NUMASteal && b.Strategy == backend.StrategyStealing &&
		parallel && len(tasks) > 1
	var victimOrder [][]int
	if numaSteal {
		victimOrder = stealVictimOrder(m, threads)
	}

	// assign hands pending tasks to free cores according to the
	// backend's strategy. Static strategy binds task i to core i mod P;
	// the greedy strategies hand the next task to any free core. Alongside
	// the schedule itself, assign models the scheduler counters the native
	// pools report (Pool.Stats): every dispatch is a wakeup, a dispatch
	// sourced outside the core's own queues is a steal, and a free core
	// that finds nothing assignable records an empty spin.
	assign := func(now float64) {
		for c := 0; c < threads && next < len(tasks); c++ {
			if coreTask[c] != nil || coreFreeAt[c] > now {
				continue
			}
			var ti int
			switch b.Strategy {
			case backend.StrategyStatic:
				// Core c owns tasks c, c+P, c+2P, ... Find its next.
				ti = -1
				for i := next; i < len(tasks); i++ {
					if tasks[i].done || tasks[i].running {
						continue
					}
					if i%threads == c {
						ti = i
						break
					}
				}
				if ti < 0 {
					ctr.EmptySpins++
					continue
				}
			default:
				ti = -1
				if numaSteal {
					// Locality-ordered scan: the core drains its own band,
					// then same-node bands, then same-socket, then remote —
					// the node-ordered victim scan the native pool runs
					// under a topology.
					for _, vc := range victimOrder[c] {
						band := bands.At(vc)
						for i := band.Lo; i < band.Hi; i++ {
							if !tasks[i].done && !tasks[i].running {
								ti = i
								break
							}
						}
						if ti >= 0 {
							break
						}
					}
				} else {
					for i := next; i < len(tasks); i++ {
						if !tasks[i].done && !tasks[i].running {
							ti = i
							break
						}
					}
				}
				if ti < 0 {
					ctr.EmptySpins++
					return
				}
				// Mirror what the native pools count as a steal. A
				// central-queue worker acquires every task from the shared
				// injector, so each dispatch is a steal (local: a shared
				// queue has no home node). A band-stealing worker owns the
				// initial block partition of the chunk space; a dispatch
				// outside the core's own block means the task migrated off
				// its home, and crossing NUMA nodes makes it a remote
				// steal.
				if b.Strategy == backend.StrategyQueue {
					ctr.LocalSteals++
					if tb := st.buf(c); tb != nil {
						tb.Instant(trace.KindSteal, st.at(phaseOffset+forkCost+now), -1, trace.TierLocal)
					}
				} else if hc := tasks[ti].home; hc != c {
					tier := int64(trace.TierLocal)
					if m.NodeOf(hc) != m.NodeOf(c) {
						ctr.RemoteSteals++
						tier = trace.TierRemote
					} else {
						ctr.LocalSteals++
					}
					if tb := st.buf(c); tb != nil {
						tb.Instant(trace.KindSteal, st.at(phaseOffset+forkCost+now), int64(hc), tier)
					}
				}
			}
			ctr.Wakeups++
			if tb := st.buf(c); tb != nil {
				tb.Instant(trace.KindWakeup, st.at(phaseOffset+forkCost+now), int64(c), 0)
			}
			t := tasks[ti]
			start := now + b.TaskCost
			if b.Strategy == backend.StrategyQueue {
				if queueAt > now {
					start = queueAt + b.TaskCost
				}
				queueAt = math.Max(queueAt, now) + b.QueuePop
			}
			t.core = c
			t.startAt = start
			t.running = true
			coreTask[c] = t
			if len(tasks) == 1 {
				// A whole-array task reads every page wherever it
				// lives; affinity is meaningless for it.
				t.traffic = placement.NodeFrac
			} else if numaSteal {
				// Execution follows data: with locality-ordered stealing a
				// chunk stays on the node that first-touched its pages
				// unless it was stolen across nodes, so its full traffic
				// targets the home node — local when it runs there, fabric
				// traffic only for the (now rare) remote steals. The
				// AffinityMatch calibration models uniform random
				// stealing's decorrelation, which this policy removes.
				t.traffic = allocsim.TaskTraffic(placement, m.NodeOf(tasks[ti].home), 1, alloc)
			} else {
				t.traffic = allocsim.TaskTraffic(placement, m.NodeOf(c), tr.AffinityMatch, alloc)
			}
			for ti == next && next < len(tasks) && (tasks[next].running || tasks[next].done) {
				next++
			}
		}
	}

	now := 0.0
	assign(now)

	remainingTasks := len(tasks)
	guard := 0
	for remainingTasks > 0 {
		guard++
		if guard > 16*len(tasks)+1024 {
			panic(fmt.Sprintf("simexec: phase did not converge (%s/%s)", b.ID, cfg.Workload.Op))
		}
		// Gather computing tasks.
		var streams []memsys.Stream
		var active []*runTask
		for _, t := range tasks {
			if t.running && t.startAt <= now+1e-15 && t.remaining > epsElems {
				active = append(active, t)
				streams = append(streams, memsys.Stream{
					Core:     t.core,
					Demand:   t.cpuRate * t.bytes,
					NodeFrac: t.traffic,
				})
			}
		}

		// Next scheduled start among assigned-but-not-yet-computing.
		nextStart := math.Inf(1)
		for _, t := range tasks {
			if t.running && t.startAt > now && t.startAt < nextStart {
				nextStart = t.startAt
			}
		}

		if len(active) == 0 {
			if math.IsInf(nextStart, 1) {
				panic("simexec: no active tasks and no scheduled starts")
			}
			now = nextStart
			assign(now)
			continue
		}

		rates := memsys.Solve(m, level, streams)
		tNext := nextStart
		var first *runTask // task defining the next completion event
		for i, t := range active {
			r := t.cpuRate
			if t.bytes > 0 && rates[i] < streams[i].Demand {
				r = rates[i] / t.bytes
			}
			if r <= 0 {
				r = 1 // defensive: never stall completely
			}
			t.cpuRateNow = r
			if fin := now + t.remaining/r; fin < tNext {
				tNext = fin
				first = t
			}
		}
		dt := tNext - now
		if dt < 0 {
			dt = 0
		}

		// Advance and accumulate counters. The task defining the event is
		// forced to complete even if floating-point underflow made its
		// time step vanish (now + remaining/rate == now for tiny work).
		phaseEnded := false
		for _, t := range active {
			adv := t.cpuRateNow * dt
			if adv > t.remaining || t == first {
				adv = t.remaining
			}
			t.remaining -= adv
			accumulate(ctr, adv, t, level)
			if t.remaining <= epsElems {
				t.remaining = 0
				t.done = true
				t.running = false
				coreTask[t.core] = nil
				coreFreeAt[t.core] = tNext
				remainingTasks--
				if next >= len(tasks) && remainingTasks > 0 {
					// Nothing left to hand out: the core parks for the
					// rest of the phase while stragglers finish.
					ctr.Parks++
					if tb := st.buf(t.core); tb != nil {
						tb.Instant(trace.KindPark, st.at(phaseOffset+forkCost+tNext), 0, 0)
					}
				}
				if sink != nil {
					*sink = append(*sink, TaskSpan{
						Phase: phaseIdx, Task: t.idx, Core: t.core,
						Start: phaseOffset + forkCost + t.startAt,
						End:   phaseOffset + forkCost + tNext,
					})
				}
				if tb := st.buf(t.core); tb != nil {
					tb.Span(trace.KindChunk,
						st.at(phaseOffset+forkCost+t.startAt),
						st.at(phaseOffset+forkCost+tNext),
						elemLo[t.idx], elemLo[t.idx+1])
				}
				if t.earlyExit {
					phaseEnded = true
				}
			}
		}
		now = tNext
		if phaseEnded {
			// Cancellation: remaining tasks stop here; their partial
			// work is already in the counters. Record the truncated
			// spans.
			for _, t := range tasks {
				if t.running && t.startAt <= now {
					if sink != nil {
						*sink = append(*sink, TaskSpan{
							Phase: phaseIdx, Task: t.idx, Core: t.core,
							Start:     phaseOffset + forkCost + t.startAt,
							End:       phaseOffset + forkCost + now,
							Truncated: true,
						})
					}
					if tb := st.buf(t.core); tb != nil {
						tb.Span(trace.KindChunk,
							st.at(phaseOffset+forkCost+t.startAt),
							st.at(phaseOffset+forkCost+now),
							elemLo[t.idx], elemLo[t.idx+1])
					}
				}
			}
			break
		}
		assign(now)
	}

	total := forkCost + now
	if cfg.Alloc == allocsim.FirstTouch && cfg.Backend.Runtime != "HPX" &&
		tr.FirstTouchPenalty > 1 && m.NUMANodes > 1 {
		// Documented calibration knob for Figure 1's negative cases:
		// the paper measures find/inclusive_scan losing up to 24 %/19 %
		// under the custom allocator without giving a mechanism.
		total *= tr.FirstTouchPenalty
	}
	if ph.SeqInstr > 0 {
		total += ph.SeqInstr / (m.FreqGHz * 1e9 * m.IPC)
		ctr.Instructions += ph.SeqInstr
		if level == memsys.LevelDRAM {
			ctr.DRAMBytes += ph.SeqBytes
		}
	}
	return total
}

// stealVictimOrder precomputes, for every core, the proximity-ordered core
// list its band scan follows under NUMASteal: itself first, then the other
// cores of its node, then its socket, then the rest — ascending within each
// tier so the simulation stays deterministic (the native pool randomizes
// within tiers instead).
func stealVictimOrder(m *machine.Machine, threads int) [][]int {
	order := make([][]int, threads)
	for c := 0; c < threads; c++ {
		node, sock := m.NodeOf(c), m.SocketOf(c)
		ord := make([]int, 0, threads)
		ord = append(ord, c)
		for _, tier := range [3]func(int) bool{
			func(v int) bool { return m.NodeOf(v) == node },
			func(v int) bool { return m.NodeOf(v) != node && m.SocketOf(v) == sock },
			func(v int) bool { return m.SocketOf(v) != sock },
		} {
			for v := 0; v < threads; v++ {
				if v != c && tier(v) {
					ord = append(ord, v)
				}
			}
		}
		order[c] = ord
	}
	return order
}

// accumulate adds the counter contribution of adv elements of task t.
func accumulate(ctr *counters.Set, adv float64, t *runTask, level memsys.Level) {
	ctr.Instructions += adv * t.effInstr
	switch t.lanes {
	case 4:
		ctr.FP256 += adv * t.flops / 4
	case 2:
		ctr.FP128 += adv * t.flops / 2
	default:
		ctr.FPScalar += adv * t.flops
	}
	if level == memsys.LevelDRAM {
		ctr.DRAMBytes += adv * t.bytes
	}
}
