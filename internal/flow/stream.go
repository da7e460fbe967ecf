package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pstlbench/internal/serve"
)

// BackpressurePolicy selects what a stream does when its buffer cap is hit.
type BackpressurePolicy int

const (
	// DropOldest evicts the oldest buffered events (front of the oldest
	// open window) to make room — freshness wins, the source never stalls.
	DropOldest BackpressurePolicy = iota
	// Pause rejects the push (PushPaused) and buffers nothing — the
	// source decides whether to retry, slow down, or shed. Lossless as
	// long as the source honors the signal.
	Pause
)

func (p BackpressurePolicy) String() string {
	if p == Pause {
		return "pause"
	}
	return "drop"
}

// ParsePolicy maps a flag value ("drop" or "pause") to a policy.
func ParsePolicy(s string) (BackpressurePolicy, bool) {
	switch s {
	case "drop", "drop-oldest":
		return DropOldest, true
	case "pause":
		return Pause, true
	}
	return DropOldest, false
}

// PushStatus is the per-event outcome of Stream.Push — the backpressure
// and lateness signal a source acts on.
type PushStatus int

const (
	// PushAccepted means the event was buffered into every open window
	// containing it.
	PushAccepted PushStatus = iota
	// PushLate means every window containing the event had already closed
	// under the watermark; the event was counted late and discarded.
	PushLate
	// PushPaused means the buffer is at capacity under the Pause policy
	// (or the stream is closed); nothing was buffered.
	PushPaused
)

// StreamConfig configures one stream.
type StreamConfig struct {
	// Name identifies the stream (metrics label, report key).
	Name string
	// Tenant is the serve-layer fair-queuing flow window jobs bill to;
	// empty means Name — each stream is its own tenant by default.
	Tenant string
	// Window is the event-time windowing.
	Window WindowSpec
	// Op is the operator applied to each closed window.
	Op OpSpec
	// BufferCap bounds the total buffered (event, window) assignments
	// across all open windows — the memory bound backpressure defends
	// (default 65536). Must be at least the per-event window count.
	BufferCap int
	// Policy is the backpressure policy at the cap (default DropOldest).
	Policy BackpressurePolicy
	// PendingWindows bounds closed windows awaiting admission (default
	// 32); past it, newly closed windows are dropped and accounted.
	PendingWindows int
}

const (
	// submitRetries bounds admission retries on a saturated server before
	// a closed window is dropped.
	submitRetries = 3
	// retrySleepMax clamps the per-retry sleep.
	retrySleepMax = 25 * time.Millisecond
)

func (c StreamConfig) withDefaults() (StreamConfig, error) {
	if c.Name == "" {
		return c, fmt.Errorf("flow: stream name required")
	}
	if c.Tenant == "" {
		c.Tenant = c.Name
	}
	var err error
	if c.Window, err = c.Window.withDefaults(); err != nil {
		return c, err
	}
	if c.Op, err = c.Op.withDefaults(); err != nil {
		return c, err
	}
	if c.BufferCap == 0 {
		c.BufferCap = 65536
	}
	if c.BufferCap < c.Window.perEvent() {
		return c, fmt.Errorf("flow: buffer cap %d below windows per event %d",
			c.BufferCap, c.Window.perEvent())
	}
	if c.PendingWindows <= 0 {
		c.PendingWindows = 32
	}
	return c, nil
}

// openWindow is one still-open window's buffered events.
type openWindow struct {
	start, end int64
	events     *[]Event // taken from eventBufs
}

// byStart orders open windows by start for binary search.
func byStart(w *openWindow, start int64) int { return cmp.Compare(w.start, start) }

// eventBufs recycles window event buffers, so a steady stream allocates
// no event slice per window: an open window takes its buffer here, and
// the window puts it back through putEvents once it has ended — done,
// canceled, dropped, or closed empty.
//
// No job still reads a buffer put back. A window job's Fn is the only
// reader of its events, and windowFinished runs only after the job's Done.
// serve closes Done only after Fn has returned, or when Fn will never run:
// a canceled or expired queued job is retired, and retireLocked drops Fn;
// WithdrawQueued takes the job off the queue, its only callers are router
// shards, and the router rejects Fn jobs. A dropped window's job was never
// admitted.
var eventBufs = sync.Pool{New: func() any { return new([]Event) }}

// putEvents clears b, so no Key stays reachable from the pool, and puts it
// back in eventBufs. Elements past len(*b) are already zero: evictLocked
// clears the tail it vacates.
func putEvents(b *[]Event) {
	clear(*b)
	*b = (*b)[:0]
	eventBufs.Put(b)
}

// Window is one closed window handed to a job: its event-time bounds and
// the events it buffered.
type Window struct {
	Stream string
	// Start and End are the window's event-time bounds [Start, End) in
	// Unix nanoseconds.
	Start, End int64
	Events     []Event
	// Flushed marks a window closed by Flush/Close rather than by the
	// watermark passing its end.
	Flushed  bool
	closedAt time.Time
	buf      *[]Event // the pooled buffer Events came from
}

// release puts the window's event buffer back in eventBufs and returns
// how many events it held. Call it once the window has ended; see
// eventBufs for why no job can still read the events then.
func (w *Window) release() int {
	n := len(*w.buf)
	putEvents(w.buf)
	w.Events, w.buf = nil, nil
	return n
}

// WindowResult is the terminal record of one closed window.
type WindowResult struct {
	Stream string `json:"stream"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Events int    `json:"events"`
	// State is "done", "canceled" (job canceled or past deadline),
	// "dropped" (pending-window overflow or admission rejection), or
	// "empty" (closed with no events; never submitted).
	State string `json:"state"`
	// Checksum is the operator result, valid only when State is "done".
	Checksum float64 `json:"checksum,omitempty"`
	// LatencySeconds is wall time from window close to terminal state.
	// Only done windows feed the p50/p99 report: a dropped window ends
	// about when it closes, and counting it would pull the quantiles down
	// exactly when the stream is overloaded.
	LatencySeconds float64 `json:"latency_seconds"`
	Flushed        bool    `json:"flushed,omitempty"`
}

// Stream is one named event stream: open-window buffers under a cap, a
// watermark, and a drainer feeding closed windows to the engine.
type Stream struct {
	cfg StreamConfig
	eng *Engine
	m   streamMetrics

	mu        sync.Mutex
	open      []*openWindow // ascending by start
	buffered  int
	peak      int
	hasEvents bool
	maxTS     int64
	closed    bool
	scratch   []int64 // per-push window-start scratch, reused under mu

	// Counters, all under mu. Events counts accepted pushes; Assigned
	// counts (event, window) buffer entries, so under tumbling windows
	// Assigned == Events and the conservation law
	// Assigned == sum(closed window events) + DroppedEvents + Buffered
	// holds exactly at any quiescent point.
	events, assigned, late, droppedEvents, pausedEvents int64
	windowsClosed, windowsFlushed, windowsEmpty         int64
	windowsDone, windowsCanceled, windowsDropped        int64
	checksum                                            float64

	closedQ chan *Window
	drainWG sync.WaitGroup
	jobWG   sync.WaitGroup
}

func newStream(e *Engine, cfg StreamConfig) (*Stream, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:     cfg,
		eng:     e,
		closedQ: make(chan *Window, cfg.PendingWindows),
	}
	return s, nil
}

// start launches the drainer; called by the engine once registered.
func (s *Stream) start() {
	s.drainWG.Add(1)
	go func() {
		defer s.drainWG.Done()
		for w := range s.closedQ {
			s.eng.submitWindow(s, w)
		}
	}()
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.cfg.Name }

// watermarkLocked returns the current watermark: the maximum observed
// event time minus the allowed lateness, or math.MinInt64 before any
// event.
func (s *Stream) watermarkLocked() int64 {
	if !s.hasEvents {
		return math.MinInt64
	}
	return s.maxTS - int64(s.cfg.Window.Lateness)
}

// WatermarkLag returns wall-clock now minus the watermark — how far event
// time trails real time. Zero before any event.
func (s *Stream) WatermarkLag() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasEvents {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - s.watermarkLocked())
}

// Buffered returns the current buffered (event, window) assignment count.
func (s *Stream) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered
}

// Push offers one event to the stream. It never blocks: the return status
// says whether the event was buffered, late, or refused by backpressure.
func (s *Stream) Push(ev Event) PushStatus {
	s.mu.Lock()
	if s.closed {
		s.pausedEvents++
		s.mu.Unlock()
		return PushPaused
	}
	// Resolve the event's still-open windows under the CURRENT watermark
	// (the event's own timestamp has not advanced it yet — an event cannot
	// close the windows it belongs to before being buffered into them).
	wm := s.watermarkLocked()
	size := int64(s.cfg.Window.Size)
	s.scratch = s.scratch[:0]
	s.cfg.Window.eachWindow(ev.TS, func(start int64) {
		if start+size > wm {
			s.scratch = append(s.scratch, start)
		}
	})
	if len(s.scratch) == 0 {
		s.late++
		s.mu.Unlock()
		return PushLate
	}
	need := len(s.scratch)
	if s.buffered+need > s.cfg.BufferCap {
		if s.cfg.Policy == Pause {
			s.pausedEvents++
			s.mu.Unlock()
			return PushPaused
		}
		s.evictLocked(s.buffered + need - s.cfg.BufferCap)
	}
	for _, start := range s.scratch {
		i, ok := slices.BinarySearchFunc(s.open, start, byStart)
		if !ok {
			s.open = slices.Insert(s.open, i, &openWindow{
				start: start, end: start + size, events: eventBufs.Get().(*[]Event),
			})
		}
		w := s.open[i].events
		*w = append(*w, ev)
	}
	s.buffered += need
	s.assigned += int64(need)
	s.events++
	if !s.hasEvents || ev.TS > s.maxTS {
		s.maxTS, s.hasEvents = ev.TS, true
	}
	if s.buffered > s.peak {
		s.peak = s.buffered
	}
	// The advanced watermark may have closed the oldest windows.
	s.closeExpiredLocked(s.watermarkLocked(), false)
	s.mu.Unlock()
	return PushAccepted
}

// evictLocked drops k (event, window) assignments from the front of the
// oldest open windows — the DropOldest policy's victim order. Events are
// copied down in place so the evicted memory is actually released to the
// window's append slack, keeping the cap a real memory bound; the vacated
// tail is cleared so it keeps no Key reachable.
func (s *Stream) evictLocked(k int) {
	for _, w := range s.open {
		if k <= 0 {
			break
		}
		evs := *w.events
		d := min(len(evs), k)
		if d == 0 {
			continue
		}
		n := copy(evs, evs[d:])
		clear(evs[n:])
		*w.events = evs[:n]
		s.buffered -= d
		s.droppedEvents += int64(d)
		k -= d
	}
}

// closeExpiredLocked closes every open window whose end is at or behind
// the watermark (or all of them when flush is set), in start order, and
// hands each non-empty one to the drainer. Closed windows leave the buffer
// immediately — their memory is owned by the job from here on.
//
// The clock is read once, at the first window closed with events, and
// every window of the call shares that close time: most pushes close no
// window, and a clock read per push was a third of the pusher's CPU.
//
// The hand-off never blocks: a full pending queue drops the window (the
// drainer is stalled on a saturated server — backpressure has reached the
// window plane). A window dropped here ends as it closes, so its latency
// is 0. Must run under mu so no send can race Close's close(closedQ).
func (s *Stream) closeExpiredLocked(wm int64, flush bool) {
	var now time.Time
	k := 0
	for ; k < len(s.open); k++ {
		w := s.open[k]
		if !flush && w.end > wm {
			break
		}
		n := len(*w.events)
		s.buffered -= n
		s.windowsClosed++
		if flush {
			s.windowsFlushed++
		}
		if n == 0 {
			s.windowsEmpty++
			putEvents(w.events)
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		s.m.winEvents.Observe(float64(n))
		cw := &Window{
			Stream: s.cfg.Name, Start: w.start, End: w.end,
			Events: *w.events, Flushed: flush, closedAt: now, buf: w.events,
		}
		select {
		case s.closedQ <- cw:
		default:
			s.finishLocked(cw, cw.release(), "dropped", 0, 0)
		}
	}
	s.open = slices.Delete(s.open, 0, k)
}

// windowDropped finalizes a window the server refused.
func (s *Stream) windowDropped(w *Window) {
	lat := time.Since(w.closedAt)
	n := w.release()
	s.mu.Lock()
	s.finishLocked(w, n, "dropped", 0, lat)
	s.mu.Unlock()
}

// windowFinished finalizes a window whose job reached a terminal state.
func (s *Stream) windowFinished(w *Window, info serve.JobInfo) {
	state := "canceled"
	var sum float64
	if info.State == "done" {
		state = "done"
		sum = info.Checksum
	}
	lat := time.Since(w.closedAt)
	// Clear the buffer before taking mu: clearing it under the lock would
	// hold up the pusher.
	n := w.release()
	s.mu.Lock()
	s.finishLocked(w, n, state, sum, lat)
	s.mu.Unlock()
}

// finishLocked records one terminal window outcome: counters, the latency
// histogram (done windows only — serve's completed-only rule), and the
// engine result ring.
func (s *Stream) finishLocked(w *Window, events int, state string, sum float64, lat time.Duration) {
	switch state {
	case "done":
		s.windowsDone++
		s.checksum += sum
		s.m.latency.Observe(lat.Seconds())
	case "canceled":
		s.windowsCanceled++
	case "dropped":
		s.windowsDropped++
	}
	// engine.record takes only the engine lock and never a stream's, so
	// the stream->engine lock order here is the only one that occurs.
	s.eng.record(WindowResult{
		Stream: s.cfg.Name, Start: w.Start, End: w.End, Events: events,
		State: state, Checksum: sum, LatencySeconds: lat.Seconds(),
		Flushed: w.Flushed,
	})
}

// Flush closes every open window regardless of the watermark and hands
// them to the drainer. The stream stays usable.
func (s *Stream) Flush() {
	s.mu.Lock()
	s.closeExpiredLocked(0, true)
	s.mu.Unlock()
}

// Close flushes, stops the drainer, and waits for every in-flight window
// job. Pushes after Close return PushPaused.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closeExpiredLocked(0, true)
	s.closed = true
	close(s.closedQ)
	s.mu.Unlock()
	s.drainWG.Wait()
	s.jobWG.Wait()
	// The engine keeps the newest closed streams for Stats, so release the
	// buffers only open streams use. Push returns on closed before touching
	// them, and Flush finds no open windows to close or emit.
	s.mu.Lock()
	s.open, s.scratch, s.closedQ = nil, nil, nil
	finished := s.windowsDone + s.windowsCanceled + s.windowsDropped + s.windowsEmpty
	s.mu.Unlock()
	s.eng.retire(s, finished)
}

// StreamStats is a consistent snapshot of one stream's accounting.
type StreamStats struct {
	Stream string `json:"stream"`
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	Policy string `json:"policy"`
	// Events counts accepted pushes; Assigned counts buffered
	// (event, window) entries (== Events for tumbling windows).
	Events   int64 `json:"events"`
	Assigned int64 `json:"assigned"`
	// LateEvents were discarded at the watermark; DroppedEvents were
	// evicted under DropOldest; PausedEvents were refused under Pause.
	LateEvents    int64 `json:"late_events"`
	DroppedEvents int64 `json:"dropped_events"`
	PausedEvents  int64 `json:"paused_events"`
	WindowsClosed int64 `json:"windows_closed"`
	// WindowsFlushed of the closed windows were forced by Flush/Close.
	WindowsFlushed  int64 `json:"windows_flushed"`
	WindowsEmpty    int64 `json:"windows_empty"`
	WindowsDone     int64 `json:"windows_done"`
	WindowsCanceled int64 `json:"windows_canceled"`
	WindowsDropped  int64 `json:"windows_dropped"`
	// Buffered is the current (event, window) buffer occupancy;
	// PeakBuffered its high-water mark — the number the BufferCap bound
	// is audited against.
	Buffered     int `json:"buffered"`
	PeakBuffered int `json:"peak_buffered"`
	// Checksum is the sum of done-window checksums (exact: integer-valued).
	Checksum float64 `json:"checksum"`
	// WatermarkLagSeconds is wall now minus the watermark.
	WatermarkLagSeconds float64 `json:"watermark_lag_seconds"`
	// P50/P99/MeanSeconds summarize close-to-completion latency of done
	// windows, read from pstld_flow_window_latency_seconds.
	P50Seconds  float64 `json:"window_p50_seconds,omitempty"`
	P99Seconds  float64 `json:"window_p99_seconds,omitempty"`
	MeanSeconds float64 `json:"window_mean_seconds,omitempty"`
}

// Stats snapshots the stream.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	st := StreamStats{
		Stream: s.cfg.Name, Tenant: s.cfg.Tenant, Op: s.cfg.Op.Kind,
		Policy: s.cfg.Policy.String(),
		Events: s.events, Assigned: s.assigned,
		LateEvents: s.late, DroppedEvents: s.droppedEvents, PausedEvents: s.pausedEvents,
		WindowsClosed: s.windowsClosed, WindowsFlushed: s.windowsFlushed,
		WindowsEmpty: s.windowsEmpty, WindowsDone: s.windowsDone,
		WindowsCanceled: s.windowsCanceled, WindowsDropped: s.windowsDropped,
		Buffered: s.buffered, PeakBuffered: s.peak, Checksum: s.checksum,
	}
	if s.hasEvents {
		st.WatermarkLagSeconds = float64(time.Now().UnixNano()-s.watermarkLocked()) / 1e9
	}
	s.mu.Unlock()
	if lat := s.m.latency.Snapshot(); lat.Count > 0 {
		st.P50Seconds, st.P99Seconds = lat.Quantile(0.5), lat.Quantile(0.99)
		st.MeanSeconds = lat.Sum / float64(lat.Count)
	}
	return st
}
