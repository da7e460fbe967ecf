// Package trace is the event-tracing layer of the suite: a low-overhead
// recorder of scheduler events — chunk-execution spans, steal attempts with
// victim and locality tier, parks, wakeups, region and iteration markers —
// into fixed-capacity per-track ring buffers, one track per worker (native
// pools) or per simulated core (simexec), plus one for the measurement
// harness.
//
// Two clock domains share one event format: a wall-clock Tracer (New) stamps
// events with monotonic nanoseconds since the tracer was created, and a
// virtual-time Tracer (NewVirtual) carries a cursor that the simulator
// advances by each invocation's modeled duration, so simulated iterations
// stack end-to-end on one timeline. Consumers (the Chrome-trace exporter in
// chrome.go, the distribution summarizer in summary.go) treat both planes
// identically.
//
// The record path is allocation-free: events are fixed-size structs written
// into a preallocated ring under a short per-track critical section (the
// only contention is an exporter draining concurrently), and when the ring
// is full the oldest events are evicted and counted as lost rather than
// blocking or growing. A disabled tracer is a nil *Buf; every record method
// is nil-safe and its disabled path is a single inlined pointer check, so
// instrumented hot loops pay under a nanosecond per event when tracing is
// off (guarded by BenchmarkTraceDisabled).
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindChunk is a span: one loop chunk executed by a worker. A0/A1 are
	// the chunk's [lo, hi) element range natively, or the simulator's task
	// element range.
	KindChunk Kind = iota
	// KindSteal is an instant: the track's worker acquired work away from
	// its home queue. A0 is the victim worker (or -1 for the shared
	// injector/central queue), A1 is the locality tier (TierLocal or
	// TierRemote).
	KindSteal
	// KindPark is a span natively (the worker blocked on its semaphore
	// from Start to End) and an instant in the simulator (the core went
	// idle for the rest of the phase).
	KindPark
	// KindWakeup is an instant: a park token was delivered to the track's
	// worker. A0 is the woken worker id.
	KindWakeup
	// KindRegion is a span bracketing one measured region: one attempt of
	// a benchmark instance, named by the instance's full name. A0 is the
	// interned name id (Tracer.Intern / Tracer.NameOf), A1 the attempt's
	// iteration count.
	KindRegion
	// KindIteration is an instant: the harness started a measurement
	// iteration. A0 is the iteration index within the current run.
	KindIteration

	numKinds
)

// Steal locality tiers (Event.A1 of KindSteal).
const (
	TierLocal  = 0 // victim on the thief's NUMA node (or no topology)
	TierRemote = 1 // victim on another node: data dragged across the fabric
)

// String returns the Chrome-trace event name of the kind.
func (k Kind) String() string {
	switch k {
	case KindChunk:
		return "chunk"
	case KindSteal:
		return "steal"
	case KindPark:
		return "park"
	case KindWakeup:
		return "wakeup"
	case KindRegion:
		return "region"
	case KindIteration:
		return "iteration"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fixed-size trace record. Timestamps are nanoseconds in the
// tracer's clock domain (wall or virtual); instants have End == Start.
type Event struct {
	Start int64
	End   int64
	A0    int64
	A1    int64
	Kind  Kind
}

// Duration returns the span length in seconds (0 for instants).
func (e Event) Duration() float64 { return float64(e.End-e.Start) * 1e-9 }

// DefaultCapacity is the per-track ring capacity used when a Tracer is
// created with capacity <= 0.
const DefaultCapacity = 1 << 16

// Buf is one track's ring buffer. It is a single conceptual producer
// (the owning worker), but writes are serialized with a mutex so occasional
// cross-track producers (wake tokens recorded on the woken worker's track)
// and a concurrently draining exporter stay race-free; the critical section
// is one slot store.
//
// A nil *Buf is the disabled tracer: every method is a nil-check no-op.
type Buf struct {
	mu  sync.Mutex
	ev  []Event
	pos uint64 // total events ever recorded; slot index is pos % cap
}

// Span records a [start, end] span event. No-op on a nil Buf.
func (b *Buf) Span(k Kind, start, end, a0, a1 int64) {
	if b == nil {
		return
	}
	b.record(k, start, end, a0, a1)
}

// Instant records a point event at time at. No-op on a nil Buf.
func (b *Buf) Instant(k Kind, at, a0, a1 int64) {
	if b == nil {
		return
	}
	b.record(k, at, at, a0, a1)
}

func (b *Buf) record(k Kind, start, end, a0, a1 int64) {
	b.mu.Lock()
	b.ev[b.pos%uint64(len(b.ev))] = Event{Start: start, End: end, A0: a0, A1: a1, Kind: k}
	b.pos++
	b.mu.Unlock()
}

// Recorded returns the total number of events ever recorded, including
// evicted ones. 0 on a nil Buf.
func (b *Buf) Recorded() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pos
}

// Lost returns how many events were evicted to make room (oldest first).
func (b *Buf) Lost() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := uint64(len(b.ev)); b.pos > c {
		return b.pos - c
	}
	return 0
}

// Events returns a copy of the surviving events, oldest first. Recording
// may continue concurrently; the snapshot is consistent. Nil on a nil Buf.
func (b *Buf) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := uint64(len(b.ev))
	if b.pos <= c {
		return append([]Event(nil), b.ev[:b.pos]...)
	}
	// Full ring: oldest surviving event sits at pos % cap.
	head := b.pos % c
	out := make([]Event, 0, c)
	out = append(out, b.ev[head:]...)
	out = append(out, b.ev[:head]...)
	return out
}

// Len returns how many events currently survive in the ring.
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := uint64(len(b.ev)); b.pos > c {
		return int(c)
	}
	return int(b.pos)
}

// Tracer owns the per-track ring buffers and the clock of one tracing
// session. A nil *Tracer is valid and disabled: Buf returns nil and the
// clock methods return 0 / no-op.
type Tracer struct {
	bufs    []*Buf
	labels  []string
	virtual bool
	start   time.Time    // wall tracer: epoch of Now
	cur     atomic.Int64 // virtual tracer: cursor in ns, advanced by producers

	mu    sync.Mutex
	names []string
	ids   map[string]int64
}

// New creates a wall-clock tracer with the given number of tracks and
// per-track ring capacity (DefaultCapacity when capacity <= 0). Now reports
// monotonic nanoseconds since this call.
func New(tracks, capacity int) *Tracer {
	return newTracer(tracks, capacity, false)
}

// NewVirtual creates a virtual-time tracer: Now reports a cursor that
// producers (the simulator) advance by each invocation's modeled duration
// via Advance, so events from successive simulated runs share one timeline.
func NewVirtual(tracks, capacity int) *Tracer {
	return newTracer(tracks, capacity, true)
}

func newTracer(tracks, capacity int, virtual bool) *Tracer {
	if tracks < 1 {
		tracks = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{
		bufs:    make([]*Buf, tracks),
		labels:  make([]string, tracks),
		virtual: virtual,
		start:   time.Now(),
		ids:     make(map[string]int64),
	}
	for i := range t.bufs {
		t.bufs[i] = &Buf{ev: make([]Event, capacity)}
		t.labels[i] = fmt.Sprintf("track %d", i)
	}
	return t
}

// Tracks returns the number of tracks (0 on a nil Tracer).
func (t *Tracer) Tracks() int {
	if t == nil {
		return 0
	}
	return len(t.bufs)
}

// Virtual reports whether timestamps are virtual rather than wall time.
func (t *Tracer) Virtual() bool { return t != nil && t.virtual }

// Buf returns the ring of the given track, or nil when the tracer is nil or
// the track is out of range — the nil result is the disabled recorder.
func (t *Tracer) Buf(track int) *Buf {
	if t == nil || track < 0 || track >= len(t.bufs) {
		return nil
	}
	return t.bufs[track]
}

// Now returns the current timestamp in the tracer's clock domain:
// nanoseconds since New for a wall tracer, the virtual cursor for a virtual
// one. 0 on a nil Tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	if t.virtual {
		return t.cur.Load()
	}
	return time.Since(t.start).Nanoseconds()
}

// Advance moves the virtual cursor forward by ns nanoseconds. It panics on
// a wall-clock tracer: wall time advances itself. No-op on a nil Tracer.
func (t *Tracer) Advance(ns int64) {
	if t == nil {
		return
	}
	if !t.virtual {
		panic("trace: Advance on a wall-clock tracer")
	}
	t.cur.Add(ns)
}

// SetLabel names a track ("worker 3", "core 0", "caller", "harness") for
// exports and summaries. No-op on a nil Tracer or out-of-range track.
func (t *Tracer) SetLabel(track int, label string) {
	if t == nil || track < 0 || track >= len(t.labels) {
		return
	}
	t.labels[track] = label
}

// Label returns the track's label.
func (t *Tracer) Label(track int) string {
	if t == nil || track < 0 || track >= len(t.labels) {
		return ""
	}
	return t.labels[track]
}

// Labels returns a copy of all track labels.
func (t *Tracer) Labels() []string {
	if t == nil {
		return nil
	}
	return append([]string(nil), t.labels...)
}

// Intern maps a region name to a stable id for KindRegion events. The
// submission path takes a mutex; it runs once per region, never per event.
// Returns -1 on a nil Tracer.
func (t *Tracer) Intern(name string) int64 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int64(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// NameOf returns the region name interned as id, or "" when unknown.
func (t *Tracer) NameOf(id int64) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= int64(len(t.names)) {
		return ""
	}
	return t.names[id]
}

// Events returns a snapshot of a track's surviving events, oldest first.
func (t *Tracer) Events(track int) []Event { return t.Buf(track).Events() }

// TotalEvents returns the number of events recorded across all tracks,
// including evicted ones.
func (t *Tracer) TotalEvents() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, b := range t.bufs {
		n += b.Recorded()
	}
	return n
}

// Lost returns the number of evicted events across all tracks.
func (t *Tracer) Lost() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, b := range t.bufs {
		n += b.Lost()
	}
	return n
}

// EpochUnixNano returns the wall-clock UnixNano corresponding to the
// tracer's time zero, so externally stamped wall times (job lifecycle
// spans) can be rebased onto the tracer's timeline: tracerTime =
// unixNano - EpochUnixNano. Returns 0 for a virtual or nil tracer, whose
// timeline has no wall anchor.
func (t *Tracer) EpochUnixNano() int64 {
	if t == nil || t.virtual {
		return 0
	}
	return t.start.UnixNano()
}
