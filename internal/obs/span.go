package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pstlbench/internal/trace"
)

// Phase is one checkpoint of a job's lifecycle. A span stamps each phase
// at most once per incarnation (migration restamps the queue phases on the
// new shard); the ordered timestamps attribute a job's latency to queue
// wait vs execution — the per-phase breakdown that makes a p99 regression
// explainable instead of just visible.
type Phase uint8

const (
	// PhaseAdmitted: the router/server accepted the submission.
	PhaseAdmitted Phase = iota
	// PhaseEnqueued: the job entered a shard's fair queue.
	PhaseEnqueued
	// PhaseDequeued: the fair queue released it to a concurrency slot.
	PhaseDequeued
	// PhaseMigrated: the rebalancer withdrew it for another shard.
	PhaseMigrated
	// PhaseStarted: its kernel began executing on the pool.
	PhaseStarted
	// PhaseFirstChunk: the first chunk of its parallel loop ran — the gap
	// from Started is pure scheduler dispatch latency.
	PhaseFirstChunk
	// PhaseReplayed: it was resubmitted from the job log after a restart.
	PhaseReplayed
	// PhaseCompleted: terminal, result delivered.
	PhaseCompleted
	// PhaseCanceled: terminal, canceled by client or shutdown.
	PhaseCanceled
	// PhaseFailed: terminal, deadline expired before completion.
	PhaseFailed

	// NumPhases bounds the phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"admitted", "enqueued", "dequeued", "migrated",
	"started", "first-chunk", "replayed", "completed", "canceled", "failed",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// ParsePhase maps a phase name (as serialized into job-log records and
// span JSON) back to its Phase.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// JobSpan is the lifecycle record of one job: identity plus one wall-clock
// nanosecond stamp per phase. Phase marks are atomic stores, so producers
// on different goroutines (submit path, pool worker, deadline timer,
// watcher) need no shared lock; identity fields are written once at
// creation. The Shard/Migrations fields are atomics because the
// router rewrites them on spill and migration.
type JobSpan struct {
	ID     string
	Seq    int64
	Tenant string
	Kernel string
	N      int

	shard      atomic.Int64
	migrations atomic.Int64
	ts         [NumPhases]int64 // UnixNano, 0 = phase never reached
}

// NewJobSpan starts an empty span (no phases marked, shard -1).
func NewJobSpan(id string, seq int64, tenant, kernel string, n int) *JobSpan {
	s := &JobSpan{ID: id, Seq: seq, Tenant: tenant, Kernel: kernel, N: n}
	s.shard.Store(-1)
	return s
}

// Mark stamps phase p with the current wall clock. Nil-safe — and the nil
// check comes before the clock read, so a disabled span costs no time.Now.
func (s *JobSpan) Mark(p Phase) {
	if s == nil {
		return
	}
	s.MarkAt(p, time.Now().UnixNano())
}

// MarkAt stamps phase p at the given UnixNano time (latest mark wins — a
// migrated job's re-enqueue overwrites its first). Nil-safe.
func (s *JobSpan) MarkAt(p Phase, ns int64) {
	if s == nil || p >= NumPhases {
		return
	}
	atomic.StoreInt64(&s.ts[p], ns)
	if p == PhaseMigrated {
		s.migrations.Add(1)
	}
}

// MarkOnce stamps phase p only if it has never been stamped — the
// admitted phase of a replayed job keeps its pre-crash value this way.
func (s *JobSpan) MarkOnce(p Phase) {
	if s == nil || p >= NumPhases {
		return
	}
	atomic.CompareAndSwapInt64(&s.ts[p], 0, time.Now().UnixNano())
}

// At returns phase p's UnixNano stamp, 0 when unreached.
func (s *JobSpan) At(p Phase) int64 {
	if s == nil || p >= NumPhases {
		return 0
	}
	return atomic.LoadInt64(&s.ts[p])
}

// Slot returns the address of phase p's stamp for external one-shot
// writers: core.Policy.FirstChunkNS CASes the first chunk's wall time in
// through this pointer without obs appearing on the dispatch path.
func (s *JobSpan) Slot(p Phase) *int64 {
	if s == nil || p >= NumPhases {
		return nil
	}
	return &s.ts[p]
}

// SetShard records the shard currently holding the job.
func (s *JobSpan) SetShard(shard int) {
	if s != nil {
		s.shard.Store(int64(shard))
	}
}

// Shard returns the current shard (-1 when unplaced or unsharded).
func (s *JobSpan) Shard() int {
	if s == nil {
		return -1
	}
	return int(s.shard.Load())
}

// Migrations returns how many times the job moved between shards.
func (s *JobSpan) Migrations() int64 {
	if s == nil {
		return 0
	}
	return s.migrations.Load()
}

// Terminal returns the terminal phase and its stamp, ok=false while the
// job is still live.
func (s *JobSpan) Terminal() (Phase, int64, bool) {
	for _, p := range [...]Phase{PhaseCompleted, PhaseCanceled, PhaseFailed} {
		if ns := s.At(p); ns != 0 {
			return p, ns, true
		}
	}
	return 0, 0, false
}

// QueueSeconds is time from (re-)enqueue to start — the queue-wait share
// of the job's latency. Falls back to admitted when enqueue was never
// stamped, and to the terminal stamp for jobs canceled while queued.
func (s *JobSpan) QueueSeconds() float64 {
	from := s.At(PhaseEnqueued)
	if from == 0 {
		from = s.At(PhaseAdmitted)
	}
	to := s.At(PhaseStarted)
	if to == 0 {
		_, t, ok := s.Terminal()
		if !ok {
			return 0
		}
		to = t
	}
	return secondsBetween(from, to)
}

// ExecSeconds is time from start to terminal — the execution share.
func (s *JobSpan) ExecSeconds() float64 {
	from := s.At(PhaseStarted)
	_, to, ok := s.Terminal()
	if !ok {
		return 0
	}
	return secondsBetween(from, to)
}

// TotalSeconds is admitted-to-terminal.
func (s *JobSpan) TotalSeconds() float64 {
	_, to, ok := s.Terminal()
	if !ok {
		return 0
	}
	return secondsBetween(s.At(PhaseAdmitted), to)
}

func secondsBetween(from, to int64) float64 {
	if from == 0 || to <= from {
		return 0
	}
	return float64(to-from) * 1e-9
}

// Phases returns the stamped phases as name -> UnixNano — the job-log and
// JSON serialization of the span's history.
func (s *JobSpan) Phases() map[string]int64 {
	if s == nil {
		return nil
	}
	out := make(map[string]int64)
	for p := Phase(0); p < NumPhases; p++ {
		if ns := s.At(p); ns != 0 {
			out[p.String()] = ns
		}
	}
	return out
}

// SeedPhases restamps the span from a serialized phase map (unknown names
// ignored) — how a replayed job recovers its pre-crash history.
func (s *JobSpan) SeedPhases(phases map[string]int64) {
	for name, ns := range phases {
		if p, ok := ParsePhase(name); ok && ns != 0 {
			s.MarkAt(p, ns)
		}
	}
}

// SpanInfo is the JSON shape of a span (the /spans endpoint and the
// experiment exports).
type SpanInfo struct {
	ID         string           `json:"id"`
	Tenant     string           `json:"tenant"`
	Kernel     string           `json:"kernel"`
	N          int              `json:"n"`
	Shard      int              `json:"shard"`
	Migrations int64            `json:"migrations,omitempty"`
	Phases     map[string]int64 `json:"phases"`
	// Attribution in seconds: Queue + Exec ~= Total for a run job.
	QueueSeconds float64 `json:"queue_seconds"`
	ExecSeconds  float64 `json:"exec_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// Info snapshots the span.
func (s *JobSpan) Info() SpanInfo {
	if s == nil {
		return SpanInfo{Shard: -1}
	}
	return SpanInfo{
		ID: s.ID, Tenant: s.Tenant, Kernel: s.Kernel, N: s.N,
		Shard: s.Shard(), Migrations: s.Migrations(),
		Phases:       s.Phases(),
		QueueSeconds: s.QueueSeconds(),
		ExecSeconds:  s.ExecSeconds(),
		TotalSeconds: s.TotalSeconds(),
	}
}

// SpanLog retains terminal job spans in a bounded ring, oldest evicted
// first — the span analogue of trace.Buf. A nil *SpanLog is disabled.
type SpanLog struct {
	mu   sync.Mutex
	ring []*JobSpan
	pos  uint64
}

// NewSpanLog returns a span ring holding up to capacity spans (default
// 4096 when <= 0).
func NewSpanLog(capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &SpanLog{ring: make([]*JobSpan, capacity)}
}

// Add retains a terminal span. Nil-safe.
func (l *SpanLog) Add(s *JobSpan) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	l.ring[l.pos%uint64(len(l.ring))] = s
	l.pos++
	l.mu.Unlock()
}

// Total returns how many spans were ever added (including evicted ones).
func (l *SpanLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Spans returns the surviving spans, oldest first.
func (l *SpanLog) Spans() []*JobSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c := uint64(len(l.ring))
	if l.pos <= c {
		return append([]*JobSpan(nil), l.ring[:l.pos]...)
	}
	head := l.pos % c
	out := make([]*JobSpan, 0, c)
	out = append(out, l.ring[head:]...)
	out = append(out, l.ring[:head]...)
	return out
}

// ChromeTrack converts spans into one export track for the Chrome-trace
// writer: a complete event per job from its first stamp to its terminal
// stamp (live jobs are skipped), plus an instant per intermediate phase.
// Timestamps are rebased from UnixNano onto the tracer clock via
// epochUnixNano (trace.Tracer.EpochUnixNano), so job spans land on the
// same timeline as — and visually contain — the scheduler's chunk spans.
func ChromeTrack(spans []*JobSpan, epochUnixNano int64) trace.ExportTrack {
	tr := trace.ExportTrack{Label: "jobs"}
	for _, s := range spans {
		term, end, ok := s.Terminal()
		if !ok {
			continue
		}
		start := s.At(PhaseAdmitted)
		if start == 0 {
			start = s.At(PhaseEnqueued)
		}
		if start == 0 || end < start {
			continue
		}
		info := s.Info()
		tr.Events = append(tr.Events, trace.ExportEvent{
			Name:  fmt.Sprintf("job %s %s/%s", s.ID, s.Tenant, s.Kernel),
			Start: start - epochUnixNano,
			End:   end - epochUnixNano,
			Args: map[string]any{
				"id": s.ID, "tenant": s.Tenant, "kernel": s.Kernel,
				"n": s.N, "shard": info.Shard,
				"terminal": term.String(), "phases": info.Phases,
				"queue_seconds": info.QueueSeconds, "exec_seconds": info.ExecSeconds,
			},
		})
		for p := Phase(0); p < NumPhases; p++ {
			ns := s.At(p)
			if ns == 0 || p == PhaseAdmitted {
				continue
			}
			tr.Events = append(tr.Events, trace.ExportEvent{
				Name:  "phase:" + p.String(),
				Start: ns - epochUnixNano,
				End:   ns - epochUnixNano,
				Args:  map[string]any{"id": s.ID, "phase": p.String()},
			})
		}
	}
	return tr
}

// WriteChrome exports the tracer's scheduler events plus the span log's
// job spans as one Chrome trace-event file: chunk/steal/park events on
// their worker tracks, job lifecycle spans on an extra "jobs" track whose
// intervals contain the chunks they own.
func WriteChrome(w io.Writer, t *trace.Tracer, log *SpanLog) error {
	return trace.WriteChromeExtra(w, t, []trace.ExportTrack{
		ChromeTrack(log.Spans(), t.EpochUnixNano()),
	})
}
