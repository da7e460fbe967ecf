package native

import (
	"sync"
	"sync/atomic"

	"pstlbench/internal/exec"
	"pstlbench/internal/trace"
)

// A task word is the unit queued on the worker queues and the injector: the
// high half names a job slot in the pool's job table (+1, so the zero word
// is never a valid task), the low half is a small argument interpreted by
// the job kind (part index or chunk index). Keeping tasks single words is
// what lets the lock-free injector hold them atomically, and replacing the
// seed's one-closure-per-chunk scheme with (job, index) pairs is what
// removes the per-chunk allocations.
func encodeTask(slot int32, arg int32) uint64 {
	return uint64(slot+1)<<32 | uint64(uint32(arg))
}

func decodeTask(w uint64) (slot int32, arg int32) {
	return int32(w>>32) - 1, int32(uint32(w))
}

// jobKind selects how a job interprets a task argument.
type jobKind int8

const (
	// kindStatic: arg is a part index; the part runs chunks arg, arg+parts,
	// arg+2*parts, ... (OpenMP schedule(static) interleaving).
	kindStatic jobKind = iota
	// kindBand: arg is a part index owning a band of contiguous chunk
	// indices; exhausted parts steal half of a sibling band.
	kindBand
	// kindChunk: arg is a single chunk index (HPX-style per-chunk task).
	kindChunk
)

// job is a schedulable operation: one ForChunks loop. Jobs live permanently
// in their pool's job table and are recycled through a slot freelist, so
// steady-state dispatch does not allocate: the band array reuses its
// backing storage, and completion is signalled through a reusable condition
// variable rather than a fresh channel.
type job struct {
	pool *Pool
	slot int32
	kind jobKind

	// Completion accounting (the seed's group, folded in).
	pending  atomic.Int64
	doneFlag atomic.Bool
	panicked atomic.Bool
	panicVal any
	wmu      sync.Mutex
	wcond    sync.Cond // signalled once doneFlag is set

	// Chunk loops.
	body   func(worker, lo, hi int)
	cancel *exec.Cancel // nil = uncancellable; checked before every chunk
	chunks exec.Chunks  // the loop's decomposition, read in place through j
	parts  int          // scheduled parts (kindStatic / kindBand)
	bands  []chunkBand
}

// chunkBand is a [lo, hi) window of chunk indices packed into one CAS-able
// word: the owner takes from the front, thieves split off the back half.
// Chunk indices leave a band either by being claimed (front) or by moving to
// the thief's band (back), and a claimed index never re-enters any band, so
// the packed CAS is ABA-safe.
type chunkBand struct {
	state atomic.Uint64 // lo<<32 | hi
}

func packBand(lo, hi int32) uint64       { return uint64(uint32(lo))<<32 | uint64(uint32(hi)) }
func unpackBand(s uint64) (lo, hi int32) { return int32(s >> 32), int32(uint32(s)) }

// take claims the front chunk index of the band.
func (b *chunkBand) take() (int32, bool) {
	for {
		s := b.state.Load()
		lo, hi := unpackBand(s)
		if lo >= hi {
			return 0, false
		}
		if b.state.CompareAndSwap(s, packBand(lo+1, hi)) {
			return lo, true
		}
	}
}

// stealHalf removes the back half of the band (rounded down), returning the
// stolen index range. Bands holding a single chunk are left to their owner:
// stealing one chunk buys no balance and doubles the synchronization.
func (b *chunkBand) stealHalf() (lo, hi int32, ok bool) {
	for {
		s := b.state.Load()
		blo, bhi := unpackBand(s)
		n := bhi - blo
		if n < 2 {
			return 0, 0, false
		}
		take := n / 2
		if b.state.CompareAndSwap(s, packBand(blo, bhi-take)) {
			return bhi - take, bhi, true
		}
	}
}

// reset prepares a recycled job for a new use with n pending tasks.
func (j *job) reset(kind jobKind, pending int) {
	j.kind = kind
	j.pending.Store(int64(pending))
	j.doneFlag.Store(false)
	j.panicked.Store(false)
	j.panicVal = nil
}

// finish reports one task completion, capturing the first panic, and wakes
// waiters when the job is complete.
func (j *job) finish(recovered any) {
	if recovered != nil && j.panicked.CompareAndSwap(false, true) {
		j.panicVal = recovered
	}
	if j.pending.Add(-1) == 0 {
		j.doneFlag.Store(true)
		j.wmu.Lock()
		j.wcond.Broadcast()
		j.wmu.Unlock()
	}
}

// isDone reports completion of every task of the job.
func (j *job) isDone() bool { return j.doneFlag.Load() }

// sleep blocks until the job completes. The pool's workers guarantee
// progress on any queued task, so parking here cannot strand work.
func (j *job) sleep() {
	j.wmu.Lock()
	for !j.doneFlag.Load() {
		j.wcond.Wait()
	}
	j.wmu.Unlock()
}

// runChunk executes one [lo, hi) chunk of the job's body, wrapping it in a
// KindChunk span when the pool is traced.
func (j *job) runChunk(worker, lo, hi int) {
	p := j.pool
	if tb := p.tbuf(worker); tb != nil {
		start := p.tr.Now()
		j.body(worker, lo, hi)
		tb.Span(trace.KindChunk, start, p.tr.Now(), int64(lo), int64(hi))
		return
	}
	j.body(worker, lo, hi)
}

// runTask executes one task argument of the job on the given worker id,
// reporting completion (and any panic) to the job.
func (j *job) runTask(arg int32, worker int) {
	defer func() { j.finish(recover()) }()
	switch j.kind {
	case kindStatic:
		for i := int(arg); i < j.chunks.Len(); i += j.parts {
			if j.cancel.Canceled() {
				return
			}
			r := j.chunks.At(i)
			j.runChunk(worker, r.Lo, r.Hi)
		}
	case kindBand:
		j.runBand(int(arg), worker)
	case kindChunk:
		if j.cancel.Canceled() {
			return
		}
		r := j.chunks.At(int(arg))
		j.runChunk(worker, r.Lo, r.Hi)
	}
}

// runBand drains the part's own band, then steals half of a sibling band
// until no band has stealable work left. Band indices are the home-worker
// ids their chunks were pinned to, so the executing worker first tries the
// band bearing its own id (its data lives closest; that band never appears
// in its own victim list), then scans its tiered victim order.
func (j *job) runBand(part, worker int) {
	own := &j.bands[part]
	p := j.pool
	try := func(b int) bool {
		if b >= len(j.bands) || b == part {
			return false
		}
		lo, hi, ok := j.bands[b].stealHalf()
		if ok {
			own.state.Store(packBand(lo, hi))
			p.noteBandSteal(worker, b, p.remoteFrom(worker, b))
		}
		return ok
	}
	for {
		if j.cancel.Canceled() {
			// The part's remaining band is abandoned, not drained: sibling
			// parts observe the same token, so nobody re-adopts the chunks
			// and the job completes as soon as in-flight chunks return.
			return
		}
		if i, ok := own.take(); ok {
			r := j.chunks.At(int(i))
			j.runChunk(worker, r.Lo, r.Hi)
			continue
		}
		if !try(worker) && p.stealOrd[worker].scan(p.rand(worker), try) < 0 {
			return
		}
	}
}
