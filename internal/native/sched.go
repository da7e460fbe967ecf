package native

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pstlbench/internal/counters"
	"pstlbench/internal/trace"
)

// SchedStats is a snapshot of the pool's scheduling counters, mirroring the
// scheduler fields of counters.Set so native runs and the simulator report
// comparable statistics.
type SchedStats struct {
	// LocalSteals counts work acquired from somewhere other than the
	// worker's own queue — words taken from another worker's queue,
	// injector pops, and band half-steals inside stealing loops — where
	// the victim shared the thief's NUMA node. Flat pools (no topology)
	// report every steal here; injector pops are always local (a shared
	// queue has no home node).
	LocalSteals uint64
	// RemoteSteals counts steals whose victim lived on a different NUMA
	// node than the thief — the steals that drag first-touched data across
	// the fabric.
	RemoteSteals uint64
	// Parks counts blocking events: workers parking on their semaphore and
	// callers parking on a job's completion after their spin budget.
	Parks uint64
	// Wakeups counts park tokens delivered to sleeping workers.
	Wakeups uint64
	// EmptySpins counts scavenging rounds that found every queue empty.
	EmptySpins uint64
}

// Steals returns the total steal count regardless of locality.
func (s SchedStats) Steals() uint64 { return s.LocalSteals + s.RemoteSteals }

// Sub returns s - o, for differencing two snapshots around a region of
// interest (the native analogue of the Likwid marker bracketing).
func (s SchedStats) Sub(o SchedStats) SchedStats {
	return SchedStats{
		LocalSteals:  s.LocalSteals - o.LocalSteals,
		RemoteSteals: s.RemoteSteals - o.RemoteSteals,
		Parks:        s.Parks - o.Parks,
		Wakeups:      s.Wakeups - o.Wakeups,
		EmptySpins:   s.EmptySpins - o.EmptySpins,
	}
}

// Counters maps the stats onto the scheduler fields of a counters.Set, so
// native runs and simulated runs (simexec) report through the same type.
func (s SchedStats) Counters() counters.Set {
	return counters.Set{
		LocalSteals:  float64(s.LocalSteals),
		RemoteSteals: float64(s.RemoteSteals),
		Parks:        float64(s.Parks),
		Wakeups:      float64(s.Wakeups),
		EmptySpins:   float64(s.EmptySpins),
	}
}

// schedCounters is one cache-line-padded bundle of counters. Workers own
// one each (index = worker id); callers share a trailing bundle.
type schedCounters struct {
	localSteals  atomic.Uint64
	remoteSteals atomic.Uint64
	parks        atomic.Uint64
	wakeups      atomic.Uint64
	emptySpins   atomic.Uint64
	_            [3]uint64 // pad to a cache line to avoid false sharing
}

// noteSteal records one steal, classified by victim locality.
func (c *schedCounters) noteSteal(remote bool) {
	if remote {
		c.remoteSteals.Add(1)
	} else {
		c.localSteals.Add(1)
	}
}

// worker is the per-worker scheduling state.
type worker struct {
	queue  queue
	parked atomic.Bool
	park   chan struct{} // capacity 1; a token is only sent after unparking CAS
	rng    uint64        // xorshift state, owner goroutine only
}

// queue is a worker's only task queue: a mutex-guarded slice of task words
// put there by submitters (fork-join parts, initial stealing bands). The
// owner takes the newest word (pop); idle workers and waiting callers take
// the oldest (steal), so a worker shared by concurrent loops runs the loop
// submitted last first while thieves drain from the other end. The mutex is
// taken once per word, and a queue holds at most one word per loop it
// serves — never one per chunk. n mirrors the word count so empty queues
// are skipped without the lock.
type queue struct {
	mu   sync.Mutex
	n    atomic.Int32
	buf  []uint64 // live words are buf[head:], oldest first
	head int
}

func (q *queue) put(w uint64) {
	q.mu.Lock()
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Reuse the taken front before growing.
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, w)
	q.n.Add(1)
	q.mu.Unlock()
}

// pop takes the newest word; only the owner calls it.
func (q *queue) pop() (uint64, bool) {
	if q.n.Load() == 0 {
		return 0, false
	}
	q.mu.Lock()
	if q.head == len(q.buf) {
		q.mu.Unlock()
		return 0, false
	}
	w := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	q.n.Add(-1)
	q.mu.Unlock()
	return w, true
}

// steal takes the oldest word. Safe to call from any goroutine.
func (q *queue) steal() (uint64, bool) {
	if q.n.Load() == 0 {
		return 0, false
	}
	q.mu.Lock()
	if q.head == len(q.buf) {
		q.mu.Unlock()
		return 0, false
	}
	w := q.buf[q.head]
	q.head++
	q.n.Add(-1)
	q.mu.Unlock()
	return w, true
}

// spinRounds is the number of full empty scavenging sweeps a worker or
// waiter performs (yielding between sweeps) before parking. Each sweep
// already polls every queue in the pool, so a small budget suffices; long
// budgets burn the CPU the very workers we are waiting for would use.
const spinRounds = 4

// rand returns a pseudo-random value for victim selection. Worker slots use
// an owner-local xorshift; the caller pseudo-worker (id == len(workers))
// shares an atomic splitmix counter, finalized through mix64 — the raw
// additive counter would make rand%n cycle victim starts in a fixed
// arithmetic pattern.
func (p *Pool) rand(worker int) uint64 {
	if worker < len(p.ws) {
		x := p.ws[worker].rng
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.ws[worker].rng = x
		return x
	}
	return mix64(p.callerRng.Add(0x9E3779B97F4A7C15))
}

func (p *Pool) counters(worker int) *schedCounters {
	if worker < len(p.ws) {
		return &p.stats[worker]
	}
	return &p.stats[len(p.ws)]
}

// tbuf returns the worker's trace ring, or nil on an untraced pool — the
// nil result short-circuits every record call to an inlined pointer check.
func (p *Pool) tbuf(worker int) *trace.Buf {
	if p.tbufs == nil {
		return nil
	}
	if worker >= len(p.tbufs) {
		worker = len(p.tbufs) - 1
	}
	return p.tbufs[worker]
}

// noteStealEvent records a steal instant on the thief's track. victim is
// the worker (or band home) the work came from, -1 for the shared injector.
func (p *Pool) noteStealEvent(tb *trace.Buf, victim int, remote bool) {
	if tb == nil {
		return
	}
	tier := int64(trace.TierLocal)
	if remote {
		tier = trace.TierRemote
	}
	tb.Instant(trace.KindSteal, p.tr.Now(), int64(victim), tier)
}

// remoteFrom reports whether worker/band home b lives on a different NUMA
// node than scanner a (worker or caller pseudo-worker). Flat pools are
// never remote.
func (p *Pool) remoteFrom(a, b int) bool {
	return p.topo != nil && p.topo[a] != p.topo[b]
}

func (p *Pool) noteBandSteal(worker, victim int, remote bool) {
	p.counters(worker).noteSteal(remote)
	p.noteStealEvent(p.tbuf(worker), victim, remote)
}

// runWord decodes and executes one task word. The job table load is ordered
// after the word load that produced w, and the slot was populated before the
// word was published, so the loaded table always covers the slot.
func (p *Pool) runWord(w uint64, worker int) {
	slot, arg := decodeTask(w)
	tab := *p.jobTab.Load()
	tab[slot].runTask(arg, worker)
}

// workerLoop is the body of each worker goroutine: pop the own queue,
// steal, and spin-then-park when the pool is idle.
func (p *Pool) workerLoop(id int) {
	defer p.wg.Done()
	w := p.ws[id]
	c := &p.stats[id]
	tb := p.tbuf(id)
	idleSweeps := 0
	for {
		if word, ok := w.queue.pop(); ok {
			idleSweeps = 0
			p.runWord(word, id)
			continue
		}
		if word, ok := p.steal(id); ok {
			idleSweeps = 0
			// Work-conserving cascade: if more work is visible, pull a
			// sibling out of park to share it.
			if p.idle.Load() > 0 && p.hasWork() {
				p.wakeOne()
			}
			p.runWord(word, id)
			continue
		}
		c.emptySpins.Add(1)
		idleSweeps++
		if idleSweeps < spinRounds {
			runtime.Gosched()
			continue
		}
		idleSweeps = 0
		if p.parkWorker(w, c, tb) {
			return // closed and drained
		}
	}
}

// steal takes one task word from outside scanner id's own queue — the
// shared injector, then the oldest word of another worker's queue in id's
// tiered victim order — and records it as a steal. Workers and waiting
// callers (id == len(ws)) share it. The injector-first order never decides
// which word is taken: a pool's strategy fills either the injector
// (centralqueue) or the worker queues (forkjoin, stealing), never both.
// Injector pops are always local (a shared queue has no home node).
func (p *Pool) steal(id int) (uint64, bool) {
	victim := -1
	word, ok := p.injector.steal()
	if !ok {
		victim = p.stealOrd[id].scan(p.rand(id), func(v int) bool {
			word, ok = p.ws[v].queue.steal()
			return ok
		})
		if victim < 0 {
			return 0, false
		}
	}
	remote := victim >= 0 && p.remoteFrom(id, victim)
	p.counters(id).noteSteal(remote)
	p.noteStealEvent(p.tbuf(id), victim, remote)
	return word, true
}

// hasWork reports whether any queue in the pool holds a task. Used for the
// park-time recheck and the wake cascade; racy but conservative callers
// tolerate both outcomes.
func (p *Pool) hasWork() bool {
	if p.injector.size() > 0 {
		return true
	}
	for _, w := range p.ws {
		if w.queue.n.Load() > 0 {
			return true
		}
	}
	return false
}

// parkWorker blocks the worker until new work is published or the pool
// closes. Returns true when the worker should exit. The announce-then-
// recheck order pairs with publish-then-wake in the submitters: if the
// recheck misses a concurrent push, the pusher's idle-count read is ordered
// after the push and sees this worker's announcement, so a token arrives.
func (p *Pool) parkWorker(w *worker, c *schedCounters, tb *trace.Buf) (exit bool) {
	w.parked.Store(true)
	p.idle.Add(1)
	if p.hasWork() || p.closed.Load() {
		if w.parked.CompareAndSwap(true, false) {
			p.idle.Add(-1)
		} else {
			// A waker claimed us between the recheck and the CAS; it has
			// already delivered a token and fixed the idle count.
			<-w.park
		}
		if p.closed.Load() && !p.hasWork() {
			return true
		}
		return false
	}
	c.parks.Add(1)
	var pstart int64
	if tb != nil {
		pstart = p.tr.Now()
	}
	select {
	case <-w.park:
		if tb != nil {
			tb.Span(trace.KindPark, pstart, p.tr.Now(), 0, 0)
		}
		return false
	case <-p.closeCh:
		if w.parked.CompareAndSwap(true, false) {
			p.idle.Add(-1)
		} else {
			<-w.park
		}
		if tb != nil {
			tb.Span(trace.KindPark, pstart, p.tr.Now(), 0, 0)
		}
		return !p.hasWork()
	}
}

// wakeOne delivers a park token to one parked worker, if any. The wakeup
// instant is recorded on the woken worker's track (the ring serializes the
// cross-goroutine write).
func (p *Pool) wakeOne() {
	if p.idle.Load() == 0 {
		return
	}
	for i, w := range p.ws {
		if w.parked.CompareAndSwap(true, false) {
			p.idle.Add(-1)
			p.stats[len(p.ws)].wakeups.Add(1)
			if tb := p.tbuf(i); tb != nil {
				tb.Instant(trace.KindWakeup, p.tr.Now(), int64(i), 0)
			}
			w.park <- struct{}{}
			return
		}
	}
}

// wake delivers up to n park tokens. Submitters call it after publishing n
// tasks so a batch wakes enough workers to drain it in parallel.
func (p *Pool) wake(n int) {
	for i := 0; i < n && p.idle.Load() > 0; i++ {
		p.wakeOne()
	}
}

// wait blocks until the job completes, scavenging queued tasks from the
// whole pool in the meantime (the caller participates with pseudo-worker id
// len(ws)), then re-raises the first panic a task captured. After a bounded
// number of empty sweeps the caller parks on the job's completion signal
// instead of busy-spinning: every still-pending task is then either queued
// (some unparked worker saw it or a token is in flight) or already running,
// so progress does not depend on this goroutine.
func (p *Pool) wait(j *job) {
	callerID := len(p.ws)
	c := &p.stats[callerID]
	sweeps := 0
	for !j.isDone() {
		if word, ok := p.steal(callerID); ok {
			sweeps = 0
			p.runWord(word, callerID)
			continue
		}
		c.emptySpins.Add(1)
		sweeps++
		if sweeps < spinRounds {
			runtime.Gosched()
			continue
		}
		c.parks.Add(1)
		if tb := p.tbuf(callerID); tb != nil {
			pstart := p.tr.Now()
			j.sleep()
			tb.Span(trace.KindPark, pstart, p.tr.Now(), 0, 0)
			break
		}
		j.sleep()
		break
	}
	if j.panicked.Load() {
		panic(j.panicVal)
	}
}
