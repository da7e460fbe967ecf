// Package flow is the continuous-ingest streaming plane: unbounded
// sources (generators, replayed traces, HTTP ingest) feed per-tenant
// Streams, event-time windows close under a watermark into ordinary serve
// jobs, and every closed window runs as a fused parallel operator
// (internal/pipeline) on the SAME pool and through the SAME weighted fair
// queue as the batch tenants — streaming is a tenant of the service, not
// a second scheduler.
//
// The pieces:
//
//   - WindowSpec assigns each event to its tumbling or sliding event-time
//     windows; the watermark (max observed event time minus the allowed
//     lateness) decides when a window closes and when an event is late.
//   - Stream buffers open windows under a hard cap and propagates
//     backpressure to its source when the cap is hit: DropOldest evicts
//     the oldest buffered events, Pause rejects the push and lets the
//     source retry or shed.
//   - Engine compiles each closed window into a serve.Spec whose Fn is
//     the window operator (OpSpec: reduce/scan/sort/topk/wordcount/
//     montecarlo) and submits it to a shared serve.Server; admission
//     saturation is a second backpressure stage (bounded retries, then
//     the window is dropped and accounted).
//   - Audit replays a finite trace through an independent sequential
//     model of the same rules, giving the exact late/dropped/closed
//     accounting and per-window checksums the tests and the ext-stream
//     experiment validate against.
//
// Observability: every count and latency lives in internal/obs, in the
// Metrics registry (a private one when none is given). The pstld_flow_*
// counters (events, late, dropped, paused, windows closed/done/canceled/
// dropped) and gauges (buffered depth, watermark lag) are read at scrape
// time from the stream's locked fields, so /metrics and StreamStats
// cannot disagree. The per-window latency histogram observes done windows
// only and backs the StreamStats p50/p99/mean. The per-window results
// ring is what the streaming driver's report is built from.
package flow

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// Event is one element of a stream: an event-time stamp, a numeric value,
// and an optional grouping key (the wordcount operator's word).
type Event struct {
	TS  int64   `json:"ts_unix_ns"`
	Val float64 `json:"val"`
	Key string  `json:"key,omitempty"`
}

// Config configures an Engine. Server is the only required field.
type Config struct {
	// Server is the shared serving layer window jobs are admitted through.
	// The engine does not own it: batch tenants submit to the same server,
	// and Close leaves it running.
	Server *serve.Server
	// Metrics receives the pstld_flow_* families, which also back the
	// StreamStats latency quantiles. When nil the engine keeps them in a
	// private registry.
	Metrics *obs.Registry
	// ResultCap bounds the per-engine ring of retained WindowResults
	// (default 1024; <0 retains nothing).
	ResultCap int
	// OnResult, when non-nil, is called for every terminal window result,
	// after it is recorded. Called from engine goroutines while a stream
	// lock is held: it must not block and must not call back into the
	// engine's streams.
	OnResult func(WindowResult)
}

// closedStreams is how many closed streams an engine keeps listed, the
// same number as the default ResultCap. A stream closed before the newest
// closedStreams leaves Streams, Stats and the metrics registry.
const closedStreams = 1024

// Engine owns a set of named streams and drives their closed windows
// through the shared server.
type Engine struct {
	srv      *serve.Server
	met      *obs.Registry
	onResult func(WindowResult)

	mu        sync.Mutex
	streams   map[string]*Stream
	order     []string // insertion order, for stable Streams()/Stats()
	retired   []retiredStream
	forgotten int64 // finished windows of streams that left retired
	results   []WindowResult
	resultCap int
	closed    bool
}

// retiredStream is a closed stream the engine still lists, with its final
// count of finished windows.
type retiredStream struct {
	name     string
	finished int64
}

// NewEngine returns an engine over cfg.Server.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("flow: Config.Server is required")
	}
	cap := cfg.ResultCap
	if cap == 0 {
		cap = 1024
	}
	if cap < 0 {
		cap = 0
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewRegistry()
	}
	return &Engine{
		srv:       cfg.Server,
		met:       met,
		onResult:  cfg.OnResult,
		streams:   make(map[string]*Stream),
		resultCap: cap,
	}, nil
}

// AddStream creates and starts a stream; its drainer goroutine runs until
// the stream (or engine) is closed.
func (e *Engine) AddStream(cfg StreamConfig) (*Stream, error) {
	s, err := newStream(e, cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("flow: engine closed")
	}
	if _, dup := e.streams[s.cfg.Name]; dup {
		return nil, fmt.Errorf("flow: duplicate stream %q", s.cfg.Name)
	}
	// Register only once the name is known unique: a rejected duplicate
	// must not rebind the live stream's pull-time series.
	s.initMetrics(e.met)
	e.streams[s.cfg.Name] = s
	e.order = append(e.order, s.cfg.Name)
	s.start()
	return s, nil
}

// Stream returns the named stream, or nil.
func (e *Engine) Stream(name string) *Stream {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.streams[name]
}

// Streams returns the open streams and the newest closed ones, in
// creation order.
func (e *Engine) Streams() []*Stream {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.streamsLocked()
}

func (e *Engine) streamsLocked() []*Stream {
	out := make([]*Stream, 0, len(e.order))
	for _, n := range e.order {
		out = append(out, e.streams[n])
	}
	return out
}

// Stats snapshots every stream, in creation order.
func (e *Engine) Stats() []StreamStats {
	ss := e.Streams()
	out := make([]StreamStats, len(ss))
	for i, s := range ss {
		out[i] = s.Stats()
	}
	return out
}

// WindowsFinished returns the total number of windows that reached a
// terminal result (done, canceled, dropped, or empty) across all streams
// the engine ever had — the streaming driver's -windows stop condition
// counts these. It never decreases: a stream's count moves into forgotten
// when it stops being listed, and it is final by then.
func (e *Engine) WindowsFinished() int64 {
	e.mu.Lock()
	n := e.forgotten
	streams := e.streamsLocked()
	e.mu.Unlock()
	for _, s := range streams {
		st := s.Stats()
		n += st.WindowsDone + st.WindowsCanceled + st.WindowsDropped + st.WindowsEmpty
	}
	return n
}

// retire lists a closed stream among the newest closed ones. The oldest
// beyond closedStreams is forgotten: it leaves streams, order and the
// registry, so its name may be reused, and its finished windows move into
// forgotten. Its series go under e.mu, so a new stream of the same name
// cannot register its own before they are gone.
func (e *Engine) retire(s *Stream, finished int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retired = append(e.retired, retiredStream{s.cfg.Name, finished})
	if len(e.retired) <= closedStreams {
		return
	}
	old := e.retired[0]
	e.retired = e.retired[1:]
	delete(e.streams, old.name)
	i := slices.Index(e.order, old.name)
	e.order = slices.Delete(e.order, i, i+1)
	e.met.Remove("stream", old.name)
	e.forgotten += old.finished
}

// record appends a terminal window result to the bounded ring.
func (e *Engine) record(r WindowResult) {
	e.mu.Lock()
	if e.resultCap > 0 {
		e.results = append(e.results, r)
		if len(e.results) > e.resultCap {
			// Amortized trim: shift once per overflow, keeping the newest.
			e.results = e.results[len(e.results)-e.resultCap:]
		}
	}
	cb := e.onResult
	e.mu.Unlock()
	if cb != nil {
		cb(r)
	}
}

// Results returns the retained window results, oldest first.
func (e *Engine) Results() []WindowResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]WindowResult(nil), e.results...)
}

// Close flushes every stream (open windows close regardless of the
// watermark), waits for their in-flight window jobs, and stops the
// drainers. The shared server stays up — it belongs to the caller.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	streams := make([]*Stream, 0, len(e.order))
	for _, n := range e.order {
		streams = append(streams, e.streams[n])
	}
	e.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
}

// submitWindow admits one closed window to the shared server, retrying a
// bounded number of times on saturation — the second backpressure stage.
// If the server still refuses, the window is dropped and accounted; its
// buffered memory was already released when the window closed.
func (e *Engine) submitWindow(s *Stream, w *Window) {
	op := s.cfg.Op
	evs := w.Events
	// No ID: serve assigns a fresh one. A window start is not unique — an
	// event in a flushed window's range reopens that start — and a reused
	// ID would hit serve's dedup and report the flushed window's job.
	spec := serve.Spec{
		Kernel: "flow:" + op.Kind,
		N:      op.jobCost(len(evs)),
		Tenant: s.cfg.Tenant,
		Fn:     func(p core.Policy) float64 { return op.Apply(p, evs) },
	}
	var j *serve.Job
	var err error
	for attempt := 0; ; attempt++ {
		j, err = e.srv.Submit(spec)
		if err == nil {
			break
		}
		if sat, ok := err.(*serve.SaturatedError); ok && attempt < submitRetries {
			d := sat.RetryAfter
			if d > retrySleepMax {
				d = retrySleepMax
			}
			if d <= 0 {
				d = time.Millisecond
			}
			// Sleeping here is deliberate backpressure: the drainer stalls,
			// the pending-window channel behind it fills, and further closed
			// windows are dropped at that bound instead of queueing without
			// limit.
			time.Sleep(d)
			continue
		}
		s.windowDropped(w)
		return
	}
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		<-j.Done()
		info := e.srv.Info(j)
		s.windowFinished(w, info)
	}()
}
