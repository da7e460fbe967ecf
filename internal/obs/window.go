package obs

import (
	"sync"
	"time"
)

// WindowConfig sizes a rolling-window histogram. The zero value selects 16
// windows of 5 s over LatencyBuckets on the wall clock — about 80 s of
// history, enough to see a load step and forget it.
type WindowConfig struct {
	// Width is one window's duration (default 5s).
	Width time.Duration
	// Count is the number of windows retained (default 16).
	Count int
	// Now returns the current time in nanoseconds; defaults to the wall
	// clock. Tests inject a fake clock to step windows deterministically.
	Now func() int64
}

// Windows is a rolling-window histogram: observations land in the current
// window slot, slots expire in place as time advances (no ticker
// goroutine), and Snapshot merges the live slots into one HistSnapshot.
// Unlike a cumulative Histogram over the same buckets, quantiles read
// from here reflect only the last Count x Width of traffic — the
// difference between "p99 since boot" and "p99 right now", which is what
// diurnal load and post-incident triage need.
//
// Observe takes a short mutex (slot rotation must be atomic with the
// write) and allocates nothing. A nil *Windows is disabled.
type Windows struct {
	width int64
	n     int
	now   func() int64

	mu    sync.Mutex
	slots []wslot
}

type wslot struct {
	epoch  int64 // window index this slot holds; -1 when never used
	counts []int64
	count  int64
	sum    float64
}

// NewWindows returns a rolling-window histogram under cfg.
func NewWindows(cfg WindowConfig) *Windows {
	if cfg.Width <= 0 {
		cfg.Width = 5 * time.Second
	}
	if cfg.Count <= 0 {
		cfg.Count = 16
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	w := &Windows{
		width: int64(cfg.Width),
		n:     cfg.Count,
		now:   cfg.Now,
		slots: make([]wslot, cfg.Count),
	}
	for i := range w.slots {
		w.slots[i] = wslot{epoch: -1, counts: make([]int64, len(LatencyBuckets)+1)}
	}
	return w
}

// Span returns the total history the windows cover.
func (w *Windows) Span() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.width * int64(w.n))
}

// Observe records one observation into the current window.
func (w *Windows) Observe(v float64) {
	if w == nil {
		return
	}
	epoch := w.now() / w.width
	w.mu.Lock()
	s := &w.slots[epoch%int64(w.n)]
	if s.epoch != epoch {
		// The slot's previous window aged out: reset it in place.
		s.epoch = epoch
		s.count, s.sum = 0, 0
		for i := range s.counts {
			s.counts[i] = 0
		}
	}
	i := 0
	for i < len(LatencyBuckets) && v > LatencyBuckets[i] {
		i++
	}
	s.counts[i]++
	s.count++
	s.sum += v
	w.mu.Unlock()
}

// Snapshot merges every window still inside the rolling horizon (the
// current window included) into one histogram.
func (w *Windows) Snapshot() HistSnapshot {
	if w == nil {
		return HistSnapshot{}
	}
	epoch := w.now() / w.width
	oldest := epoch - int64(w.n) + 1
	out := HistSnapshot{
		Bounds: LatencyBuckets,
		Counts: make([]int64, len(LatencyBuckets)+1),
	}
	w.mu.Lock()
	for si := range w.slots {
		s := &w.slots[si]
		if s.epoch < oldest || s.epoch > epoch {
			continue
		}
		for i, c := range s.counts {
			out.Counts[i] += c
		}
		out.Count += s.count
		out.Sum += s.sum
	}
	w.mu.Unlock()
	return out
}

// SLO is a per-tenant latency objective: Target fraction of jobs should
// finish within Objective seconds.
type SLO struct {
	// Objective is the latency threshold in seconds.
	Objective float64
	// Target is the fraction of jobs that must meet it (default 0.99 when
	// zero). The error budget is 1 - Target.
	Target float64
}

// BurnRate returns how fast the error budget burns over the snapshot's
// horizon: the observed bad-event fraction divided by the budget. 1.0
// means exactly on budget; >1 means the objective will be violated if the
// window's traffic is representative; 0 when the snapshot is empty or the
// SLO is unset.
func (s SLO) BurnRate(snap HistSnapshot) float64 {
	if s.Objective <= 0 || snap.Count == 0 {
		return 0
	}
	target := s.Target
	if target <= 0 {
		target = 0.99
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-6
	}
	return snap.FracAbove(s.Objective) / budget
}
