// Package native provides real goroutine-backed implementations of
// exec.Pool, one per scheduling strategy studied in the paper:
//
//   - ForkJoin: OpenMP-style static fork-join (the GNU and NVC-OMP
//     backends). The iteration space is cut once and every worker executes
//     a fixed, contiguous set of chunks.
//   - Stealing: TBB-style work stealing. Every worker owns a band of
//     chunks; idle workers steal half of a victim's remaining band.
//   - CentralQueue: HPX-style task futures over a shared queue. Every
//     chunk is an individual task popped from one central injector, which
//     maximizes load balance but pays a per-task scheduling cost.
//
// All strategies share one substrate: persistent workers, each owning one
// mutex-guarded queue of task words (the owner takes the newest, thieves
// the oldest), a shared lock-free injector (a Chase–Lev deque, deque.go)
// for the central-queue strategy's chunks, one steal function with
// randomized, tiered victim selection, and a spin-then-park idle protocol.
// A worker queue holds one word per loop part, so its mutex is taken once
// per part, never per chunk: chunk dispatch is a band CAS (stealing), index
// arithmetic (forkjoin) or an injector CAS (centralqueue) — unlike the
// seed's single mutex+cond LIFO queue, which made every strategy degenerate
// into the central-queue anti-pattern the paper identifies as the
// scalability killer. Loop chunks are scheduled as (job, index) words
// rather than per-chunk closures, so steady-state ForChunks dispatch does
// not allocate (job.go).
//
// Victim selection is optionally NUMA-aware (NewWithTopology): given a
// worker->node mapping, every victim scan visits same-node victims
// (randomized within the node) before same-socket and remote ones, and the
// pool reports local and remote steal counts separately — the
// locality-ordered stealing that keeps first-touched data from being
// dragged across the fabric.
//
// Callers of ForChunks help execute pending tasks while they wait, which
// makes nested parallelism (a loop body that runs its own loop) deadlock-free
// on a fixed-size pool.
package native

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pstlbench/internal/exec"
	"pstlbench/internal/trace"
)

// Strategy selects how a Pool maps loop chunks onto workers.
type Strategy int

const (
	// StrategyForkJoin is the OpenMP-style static schedule.
	StrategyForkJoin Strategy = iota
	// StrategyStealing is the TBB-style work-stealing schedule.
	StrategyStealing
	// StrategyCentralQueue is the HPX-style shared-queue schedule.
	StrategyCentralQueue
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyForkJoin:
		return "forkjoin"
	case StrategyStealing:
		return "stealing"
	case StrategyCentralQueue:
		return "centralqueue"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Pool is a fixed-size goroutine pool implementing exec.Pool with a
// configurable scheduling strategy over per-worker task queues.
type Pool struct {
	strategy Strategy
	ws       []*worker

	// injector holds the central-queue strategy's chunk tasks, and nothing
	// else. Pushes are serialized by injMu (submission path only); workers
	// and waiting callers take words with its lock-free steal.
	injector wsDeque
	injMu    sync.Mutex

	idle      atomic.Int32 // number of workers parked on their semaphore
	closed    atomic.Bool
	closeCh   chan struct{}
	wg        sync.WaitGroup
	callerRng atomic.Uint64
	stats     []schedCounters // one per worker + one shared caller slot

	// NUMA-aware victim selection (nil topo = flat pool, single tier).
	// topo[w] is the node of worker w, with a trailing caller entry
	// (co-located with worker 0); stealOrd[w] is w's tiered victim order.
	topo     []int32
	stealOrd []stealOrder

	// Event tracing (NewTraced). tr is nil on untraced pools; tbufs holds
	// one ring per worker plus a trailing caller slot. Both are fixed at
	// construction, before the workers start, so the worker loops read
	// them without synchronization.
	tr    *trace.Tracer
	tbufs []*trace.Buf

	// Job table: jobs live permanently in their slot and are recycled via
	// the freelist, so a task word's slot half always resolves through
	// jobTab. The table is grow-only and cells are written once, so stale
	// slice headers held by readers stay valid for every slot they cover.
	jobMu  sync.Mutex
	jobTab atomic.Pointer[[]*job]
	free   []int32
}

var _ exec.Pool = (*Pool)(nil)
var _ exec.CancelPool = (*Pool)(nil)

// New creates a pool with the given number of persistent workers and
// scheduling strategy. workers < 1 is treated as 1. Close must be called to
// release the worker goroutines. The pool is flat: victims are scanned in
// one tier and every steal is reported local; use NewWithTopology to make
// victim selection NUMA-aware.
func New(workers int, strategy Strategy) *Pool {
	return NewWithTopology(workers, strategy, Topology{})
}

// NewWithTopology creates a pool whose victim scans (queue steals by
// workers and waiting callers, and band half-stealing) visit victims in
// proximity order — same node first, randomized within each tier, then
// same socket, then remote — and whose SchedStats split steals into
// LocalSteals/RemoteSteals by whether the victim shared the thief's node.
// A zero Topology yields the flat pool New returns.
func NewWithTopology(workers int, strategy Strategy, t Topology) *Pool {
	return NewTraced(workers, strategy, t, nil)
}

// NewTraced creates a pool that additionally records scheduler events —
// chunk-execution spans, steals with victim and locality tier, parks, and
// wakeups — into tr, on wall-clock tracks 0..workers-1 (one per worker)
// plus track `workers` for the caller pseudo-worker. The tracer must be
// attached at construction so the worker loops can read it unsynchronized;
// it needs at least workers+1 tracks. A nil tr yields an untraced pool:
// every instrumented site then costs one inlined nil check (see
// trace.BenchmarkTraceDisabled).
func NewTraced(workers int, strategy Strategy, t Topology, tr *trace.Tracer) *Pool {
	if workers < 1 {
		workers = 1
	}
	if tr != nil && tr.Tracks() < workers+1 {
		panic(fmt.Sprintf("native: tracer has %d tracks, pool needs %d (workers+caller)",
			tr.Tracks(), workers+1))
	}
	validateTopology(t, workers)
	p := &Pool{strategy: strategy, closeCh: make(chan struct{})}
	if !t.flat() {
		p.topo = make([]int32, workers+1)
		for w := 0; w < workers; w++ {
			p.topo[w] = int32(t.Nodes[w])
		}
		p.topo[workers] = p.topo[0] // caller pseudo-worker rides with worker 0
	}
	p.stealOrd = buildStealOrders(workers, t)
	if tr != nil {
		p.tr = tr
		p.tbufs = make([]*trace.Buf, workers+1)
		for i := range p.tbufs {
			p.tbufs[i] = tr.Buf(i)
		}
	}
	p.injector.init()
	p.stats = make([]schedCounters, workers+1)
	p.callerRng.Store(0x9E3779B97F4A7C15)
	p.ws = make([]*worker, workers)
	for i := range p.ws {
		p.ws[i] = &worker{park: make(chan struct{}, 1), rng: splitmix64(uint64(i) + 1)}
	}
	tab := make([]*job, 0, 16)
	p.jobTab.Store(&tab)
	p.wg.Add(workers)
	for i := range p.ws {
		go p.workerLoop(i)
	}
	return p
}

// mix64 is the splitmix64 output finalizer: a bijective avalanche mix. The
// caller pseudo-worker's RNG feeds its additive counter through this; the
// raw counter alone steps victim starts in a fixed arithmetic pattern.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// splitmix64 seeds the per-worker xorshift generators.
func splitmix64(x uint64) uint64 {
	return mix64(x + 0x9E3779B97F4A7C15)
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return len(p.ws) }

// Stats returns the accumulated scheduling counters of the pool.
func (p *Pool) Stats() SchedStats {
	var s SchedStats
	for i := range p.stats {
		c := &p.stats[i]
		s.LocalSteals += c.localSteals.Load()
		s.RemoteSteals += c.remoteSteals.Load()
		s.Parks += c.parks.Load()
		s.Wakeups += c.wakeups.Load()
		s.EmptySpins += c.emptySpins.Load()
	}
	return s
}

// Close shuts down the worker goroutines. Pending tasks are drained before
// the workers exit. Close is idempotent: a long-running owner (the serving
// layer) may close on several shutdown paths without coordinating. The pool
// must not be used after Close; ForChunks on a closed pool panics.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return // already closed (or closing on another goroutine)
	}
	close(p.closeCh)
	p.wg.Wait()
}

// checkOpen panics when the pool has been closed: submitting to a closed
// pool would otherwise park the caller forever on a job no worker will ever
// drain, which in a long-running process is an undebuggable hang.
func (p *Pool) checkOpen(op string) {
	if p.closed.Load() {
		panic("native: " + op + " called on a closed Pool")
	}
}

// acquireJob takes a recycled job descriptor from the freelist, growing the
// job table when none is free. The mutex is on the per-call submission path,
// never on the per-chunk dispatch path.
func (p *Pool) acquireJob() *job {
	p.jobMu.Lock()
	if n := len(p.free); n > 0 {
		slot := p.free[n-1]
		p.free = p.free[:n-1]
		j := (*p.jobTab.Load())[slot]
		p.jobMu.Unlock()
		return j
	}
	tab := *p.jobTab.Load()
	j := &job{pool: p, slot: int32(len(tab))}
	j.wcond.L = &j.wmu
	// In-place append: cells beyond the old length are invisible to stale
	// readers, and existing cells never change, so publishing the longer
	// header is safe.
	ntab := append(tab, j)
	p.jobTab.Store(&ntab)
	p.jobMu.Unlock()
	return j
}

// releaseJob returns a completed job's slot to the freelist, dropping body
// references so the pool does not retain caller closures.
func (p *Pool) releaseJob(j *job) {
	j.body = nil
	j.cancel = nil
	p.jobMu.Lock()
	p.free = append(p.free, j.slot)
	p.jobMu.Unlock()
}

// ForChunks partitions [0, n) according to g and schedules the chunks per
// the pool strategy. It returns after every chunk has completed. The body's
// worker index is in [0, Workers()]: the value Workers() identifies the
// calling goroutine when it helps execute chunks.
func (p *Pool) ForChunks(n int, g exec.Grain, body func(worker, lo, hi int)) {
	p.ForChunksCancel(n, g, nil, body)
}

// ForChunksCancel is ForChunks with a cooperative cancellation token: the
// dispatch path checks c before every chunk, so once the token fires the
// job's remaining chunks complete as no-ops and the pool's workers are free
// within one chunk boundary. A nil token makes it identical to ForChunks —
// the per-chunk check is then one inlined nil test (BenchmarkCancelOverhead
// pins the cost next to BenchmarkSchedulerOverhead). Like ForChunks it
// returns only after every scheduled chunk has completed or been skipped;
// whether the loop ran to completion is read from the token.
func (p *Pool) ForChunksCancel(n int, g exec.Grain, c *exec.Cancel, body func(worker, lo, hi int)) {
	p.checkOpen("ForChunks")
	if n <= 0 || c.Canceled() {
		return
	}
	P := len(p.ws)
	cs := g.Chunks(n, P)
	if cs.Len() <= 1 {
		body(P, 0, n)
		return
	}
	j := p.acquireJob()
	defer p.releaseJob(j)
	j.body = body
	j.cancel = c
	j.chunks = cs

	switch p.strategy {
	case StrategyStealing:
		p.submitBands(j, cs.Len())
	case StrategyCentralQueue:
		p.submitQueue(j, cs.Len())
	default: // StrategyForkJoin
		p.submitStatic(j, cs.Len())
	}
	p.wait(j)
}

// submitStatic schedules min(P, chunks) parts, part i executing chunks
// i, i+parts, i+2*parts, ... like OpenMP schedule(static). Each part goes on
// its home worker's queue; it migrates only when an idle worker or a waiting
// caller steals it from the front of a busy owner's queue.
func (p *Pool) submitStatic(j *job, chunks int) {
	parts := len(p.ws)
	if parts > chunks {
		parts = chunks
	}
	j.parts = parts
	j.reset(kindStatic, parts)
	for part := 0; part < parts; part++ {
		p.ws[part].queue.put(encodeTask(j.slot, int32(part)))
	}
	p.wake(parts)
}

// submitBands gives each of min(P, chunks) parts a contiguous band of chunk
// indices pinned to its home worker, the bands being Static's split of the
// chunk indices (simexec's home bands read the same split); exhausted parts
// steal half of a sibling band (job.runBand).
func (p *Pool) submitBands(j *job, chunks int) {
	parts := len(p.ws)
	if parts > chunks {
		parts = chunks
	}
	j.parts = parts
	if cap(j.bands) < parts {
		j.bands = make([]chunkBand, parts)
	} else {
		j.bands = j.bands[:parts]
	}
	split := exec.Static.Chunks(chunks, parts)
	for i := range j.bands {
		b := split.At(i)
		j.bands[i].state.Store(packBand(int32(b.Lo), int32(b.Hi)))
	}
	j.reset(kindBand, parts)
	for part := 0; part < parts; part++ {
		p.ws[part].queue.put(encodeTask(j.slot, int32(part)))
	}
	p.wake(parts)
}

// submitQueue pushes every chunk as an individual task word onto the shared
// injector, in the style of HPX's per-iteration-range futures. Words
// are pushed in ascending order and the injector is consumed from the top,
// preserving the front-to-back sweep of the other strategies; every chunk
// dispatch is one CAS on the shared injector — the central contention point
// whose cost the paper measures.
func (p *Pool) submitQueue(j *job, chunks int) {
	j.reset(kindChunk, chunks)
	p.injMu.Lock()
	for i := 0; i < chunks; i++ {
		p.injector.push(encodeTask(j.slot, int32(i)))
	}
	p.injMu.Unlock()
	p.wake(chunks)
}
