package native

import (
	"sync/atomic"
)

// wsDeque is a Chase–Lev work-stealing deque of task words (see job.go for
// the word encoding), used as the pool's shared injector: one pusher at a
// time appends at the bottom (the pool serializes pushers with a mutex), and
// any goroutine removes from the top (FIFO) with a single CAS — the per-chunk
// dispatch the central-queue strategy pays. The algorithm follows Chase &
// Lev, "Dynamic Circular Work-Stealing Deque" (SPAA'05), in the formulation
// of Lê et al. (PPoPP'13), minus the owner's pop, which nothing needs; Go's
// atomics are sequentially consistent, so no explicit fences are needed.
//
// Slots are single 64-bit words accessed atomically: a thief may read a slot
// that loses the subsequent top CAS, and word-sized atomic slots keep that
// benign read race-detector-clean (a multi-word task struct could not be
// read atomically).
//
// The zero value is not usable; call init first. All indices grow
// monotonically; the buffer is a circular window [top, bottom) over them and
// is grown (never shrunk) by the pusher when full. Stale buffers remain valid
// for in-flight thieves because a retired buffer is never written again.
type wsDeque struct {
	bottom atomic.Int64 // next slot to push (only the pusher writes)
	top    atomic.Int64 // next slot to steal
	buf    atomic.Pointer[dqBuf]
}

type dqBuf struct {
	mask int64 // len(a) - 1; len is a power of two
	a    []atomic.Uint64
}

const dqInitialSize = 64

func (d *wsDeque) init() {
	d.buf.Store(newDqBuf(dqInitialSize))
}

func newDqBuf(size int64) *dqBuf {
	return &dqBuf{mask: size - 1, a: make([]atomic.Uint64, size)}
}

// size returns a snapshot of the number of queued words. Racy by nature;
// used only for work-presence heuristics and stats.
func (d *wsDeque) size() int64 {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return b - t
}

// push appends a word at the bottom. One pusher at a time.
func (d *wsDeque) push(w uint64) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t > buf.mask {
		buf = d.grow(buf, t, b)
	}
	buf.a[b&buf.mask].Store(w)
	d.bottom.Store(b + 1)
}

// grow doubles the buffer, copying the live window [t, b). Pusher only. The
// old buffer is left untouched so concurrent thieves holding it still read
// valid words for any top CAS they go on to win.
func (d *wsDeque) grow(old *dqBuf, t, b int64) *dqBuf {
	nb := newDqBuf((old.mask + 1) * 2)
	for i := t; i < b; i++ {
		nb.a[i&nb.mask].Store(old.a[i&old.mask].Load())
	}
	d.buf.Store(nb)
	return nb
}

// steal removes the oldest word. Safe to call from any goroutine. A steal
// that loses the top CAS retries, because the winner took a word and the
// deque may hold more; ok is false only when the deque was seen empty.
func (d *wsDeque) steal() (uint64, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return 0, false
		}
		buf := d.buf.Load()
		w := buf.a[t&buf.mask].Load()
		if d.top.CompareAndSwap(t, t+1) {
			return w, true
		}
	}
}
