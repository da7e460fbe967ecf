package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/native"
	"pstlbench/internal/obs"
)

// Config configures a Server. The zero value is usable: an owned
// GOMAXPROCS stealing pool, WFQ, and defaulted bounds.
type Config struct {
	// Pool is the shared execution pool; when nil the server creates and
	// owns one with Workers workers (default GOMAXPROCS) under Strategy
	// ("forkjoin", "stealing", or "centralqueue"; default "stealing"),
	// closing it on Close.
	Pool     *native.Pool
	Workers  int
	Strategy string

	// Discipline is the job-level queueing policy (the zero value is WFQ).
	Discipline Discipline
	// QueueCap bounds the admission queue (queued jobs, excluding running
	// ones); submissions beyond it are rejected with a SaturatedError.
	// Default 64. The queue is the only place jobs wait, so server memory
	// stays bounded at QueueCap + MaxConcurrent job records plus their
	// running working sets.
	QueueCap int
	// MaxConcurrent is the number of jobs running on the pool at once
	// (default 1: jobs parallelize internally across all workers via
	// chunk-level stealing; the fair queue decides which job runs next).
	MaxConcurrent int
	// Weights are the per-tenant WFQ weights (default 1 each).
	Weights map[string]float64

	// TenantQuota bounds the queued jobs of any single tenant (0 disables):
	// a tenant at its quota is rejected with a SaturatedError even while the
	// global queue has room, so one flooding tenant cannot consume the whole
	// admission budget. The one bound applies to every tenant.
	TenantQuota int

	// RetainDone bounds how many terminal (done/canceled) job records the
	// server keeps for status queries; older ones are evicted oldest-first
	// and Get on an evicted ID reports not-found. Default 1024; -1 retains
	// everything (the pre-bound behavior — unbounded memory in a daemon).
	// Queued and running jobs are never evicted, so the documented memory
	// bound QueueCap + MaxConcurrent + RetainDone job records holds.
	RetainDone int

	// Metrics receives the server's Prometheus instruments (queue depth,
	// running, load, admission counters, per-tenant latency and
	// windowed-latency histograms — see obs.go); the per-tenant latency
	// histograms are also what /stats reads its quantiles from. When nil
	// the server keeps its instruments in a private registry. MetricsLabels
	// are alternating key, value pairs stamped on every instrument; a shard
	// router labels each shard's server ("shard", "0") so the shared
	// registry keeps the series apart.
	Metrics       *obs.Registry
	MetricsLabels []string

	// Spans, when non-nil, retains each terminal job's lifecycle span (see
	// obs.JobSpan) for /spans and the Chrome-trace export. Jobs arriving
	// with Spec.Span already set (from a shard router) keep it; otherwise
	// the server creates one per job.
	Spans *obs.SpanLog

	// SLOObjective is the latency objective, applied to every tenant,
	// backing the burn-rate gauges and /stats SLO fields (0 disables);
	// SLOTarget is the fraction of jobs that must meet the objective
	// (default 0.99).
	SLOObjective time.Duration
	SLOTarget    float64

	// WindowWidth x WindowCount size the rolling latency windows behind
	// the windowed /stats quantiles (defaults 5s x 16).
	WindowWidth time.Duration
	WindowCount int

	// windowNow is the rolling-window clock test hook (in-package tests
	// step windows deterministically); nil means wall clock.
	windowNow func() int64
}

const (
	// retryAfterMax caps the Retry-After backpressure hint. The hint is
	// backlog x observed service time, so one slow job through the EMA can
	// otherwise quote minutes — and clients that honor the hint would
	// never come back.
	retryAfterMax = 30 * time.Second
)

// SaturatedError is the admission-control rejection: the queue is at
// capacity. RetryAfter is the server's backoff hint, derived from the
// observed service rate and the current backlog.
type SaturatedError struct {
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: queue saturated, retry after %v", e.RetryAfter)
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// JobState is the lifecycle state of a job.
type JobState int

const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateCanceled
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return "canceled"
	}
}

// Spec is one job submission.
type Spec struct {
	// ID, when non-empty, is the caller-assigned job identifier; the server
	// adopts it instead of generating one, and a resubmission carrying an ID
	// the server already holds returns the existing job rather than running
	// a second copy. This is the dedup a retrying transport relies on: a
	// submit that times out after the worker accepted is safe to retry.
	ID string
	// Kernel names the algorithm (see Kernels).
	Kernel string
	// N is the problem size in elements.
	N int
	// Tenant is the fair-queuing flow; empty means "default".
	Tenant string
	// Deadline, when positive, bounds the job's total time in the server
	// (queue wait included); past it the job is canceled cooperatively.
	Deadline time.Duration
	// DeadlineAt, when non-zero, is the absolute deadline and takes
	// precedence over Deadline. A router stamps it at first admission so
	// transport hops, retries, and migrations never extend the budget; a
	// DeadlineAt already in the past expires the job immediately.
	DeadlineAt time.Time
	// Span, when non-nil, is the job's lifecycle span. A shard router sets
	// it at admission so phase stamps survive spill, migration, and
	// crash-replay; a standalone server with Config.Spans creates one per
	// job itself.
	Span *obs.JobSpan
	// Fn, when non-nil, is the job body itself: a caller-supplied kernel
	// run on the shared pool under the job's policy (cancellation token,
	// first-chunk stamp) in place of the named kernels. Kernel then serves
	// only as a label for stats and traces, and N only as the WFQ cost
	// estimate. Fn jobs cannot cross a process boundary — the shard router
	// rejects them and they never enter a job log. The streaming plane
	// (internal/flow) uses this to run closed windows on the server that
	// shares its pool with batch tenants.
	Fn func(p core.Policy) float64 `json:"-"`
}

// Job is the server-side record of one submission. All fields are guarded
// by the server lock; read them through Info.
type Job struct {
	id   string
	num  int64
	spec Spec

	state    JobState
	reason   string // for StateCanceled: "canceled", "deadline", "shutdown"
	token    *exec.Cancel
	timer    *time.Timer
	enqueued time.Time
	started  time.Time
	finished time.Time
	checksum float64
	done     chan struct{}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobInfo is a consistent snapshot of a job, the shape the HTTP API serves.
type JobInfo struct {
	ID     string `json:"id"`
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// Reason qualifies a canceled state: "canceled", "deadline", "shutdown".
	Reason string `json:"reason,omitempty"`
	// Checksum is the kernel's result digest, valid only when state=done.
	Checksum float64 `json:"checksum,omitempty"`
	// QueueSeconds is time spent waiting for a slot; RunSeconds is service
	// time; TotalSeconds is end-to-end (what the latency stats report).
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// Server is the multi-tenant algorithm service.
type Server struct {
	pool    *native.Pool
	ownPool bool

	maxConcurrent int
	retainDone    int
	quota         int

	mu      sync.Mutex
	q       *FairQueue
	jobs    map[string]*Job
	running int
	nextID  int64
	closed  bool
	wg      sync.WaitGroup

	// doneOrder is the eviction ring over terminal job IDs: oldest-first,
	// bounded at retainDone (see Config.RetainDone).
	doneOrder []string

	// Observability strands (see obs.go). tenantObsM is guarded by obsMu,
	// never by mu: the finish path reads it while holding mu, the submit
	// path populates it before taking mu.
	metrics      *obs.Registry
	mlabels      []string
	spans        *obs.SpanLog
	sloObjective time.Duration
	sloTarget    float64
	winCfg       obs.WindowConfig
	obsMu        sync.Mutex
	tenantObsM   map[string]*tenantObs

	accepted, rejected, completed, canceled, expired, withdrawn int64
	tenants                                                     map[string]*tenantCounts
	// emaRun tracks service time to derive the Retry-After hint.
	emaRun float64
	// emaAdm tracks queue occupancy at admission time — the saturation
	// signal the shard router's load-aware placement reads (see Load).
	emaAdm float64
}

type tenantCounts struct {
	completed, canceled, rejected int64
}

// New starts a Server from cfg.
func New(cfg Config) *Server {
	pool := cfg.Pool
	own := false
	if pool == nil {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		st := native.StrategyStealing
		switch cfg.Strategy {
		case "", "stealing":
		case "forkjoin":
			st = native.StrategyForkJoin
		case "centralqueue":
			st = native.StrategyCentralQueue
		default:
			panic(fmt.Sprintf("serve: unknown strategy %q", cfg.Strategy))
		}
		pool = native.New(w, st)
		own = true
	}
	qcap := cfg.QueueCap
	if qcap <= 0 {
		qcap = 64
	}
	maxc := cfg.MaxConcurrent
	if maxc <= 0 {
		maxc = 1
	}
	retain := cfg.RetainDone
	if retain == 0 {
		retain = 1024
	}
	q := NewQueue(cfg.Discipline, qcap)
	for t, w := range cfg.Weights {
		q.SetWeight(t, w)
	}
	s := &Server{
		pool:          pool,
		ownPool:       own,
		maxConcurrent: maxc,
		retainDone:    retain,
		quota:         cfg.TenantQuota,
		q:             q,
		jobs:          make(map[string]*Job),
		tenants:       make(map[string]*tenantCounts),
	}
	s.initObs(cfg)
	return s
}

// Queued returns the number of jobs waiting in the admission queue.
func (s *Server) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Len()
}

// QueueCap returns the admission queue bound.
func (s *Server) QueueCap() int { return s.q.cap }

// CheckSpec is the admission check every submitter shares: a known kernel
// (or a custom Fn body, named "custom" when unnamed), N >= 1, and the
// "default" tenant when none is given. It returns spec with those
// defaults filled in.
func CheckSpec(spec Spec) (Spec, error) {
	if spec.Fn == nil && !KernelValid(spec.Kernel) {
		return spec, fmt.Errorf("serve: unknown kernel %q", spec.Kernel)
	}
	if spec.Fn != nil && spec.Kernel == "" {
		spec.Kernel = "custom"
	}
	if spec.N < 1 {
		return spec, fmt.Errorf("serve: job size %d, want >= 1", spec.N)
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	return spec, nil
}

// Submit admits a job. It returns a *SaturatedError when the queue is at
// capacity (carrying a Retry-After hint), ErrClosed after Close, and a
// plain error for an invalid spec.
func (s *Server) Submit(spec Spec) (*Job, error) {
	spec, err := CheckSpec(spec)
	if err != nil {
		return nil, err
	}
	// Tenant windows/instruments are created outside the server lock (see
	// obs.go lock-order note); after the first submission this is a map hit.
	s.ensureTenantObs(spec.Tenant)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Idempotent resubmit: an ID the server already holds means the caller
	// never saw our first accept (a transport retry). Return the existing
	// job — before quota checks, so a retried accept is never re-rejected.
	if spec.ID != "" {
		if j := s.jobs[spec.ID]; j != nil {
			s.mu.Unlock()
			return j, nil
		}
	}
	s.noteAdmissionLocked()
	// Per-tenant quota: a flooding tenant is bounded before it can consume
	// the shared admission budget.
	if s.quota > 0 && s.q.TenantLen(spec.Tenant) >= s.quota {
		s.rejected++
		s.tenant(spec.Tenant).rejected++
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		return nil, &SaturatedError{RetryAfter: retry}
	}
	s.nextID++
	id := spec.ID
	if id == "" {
		id = fmt.Sprintf("job-%d", s.nextID)
	} else if n, ok := parseJobNum(id); ok && n > s.nextID {
		// Adopted IDs in our own "job-N" format advance the counter so a
		// later generated ID can never collide with one a router assigned.
		s.nextID = n
	}
	j := &Job{
		id:       id,
		num:      s.nextID,
		spec:     spec,
		token:    &exec.Cancel{},
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	j.spec.ID = id
	if j.spec.Span == nil && s.spans != nil {
		j.spec.Span = obs.NewJobSpan(j.id, j.num, spec.Tenant, spec.Kernel, spec.N)
	}
	// MarkOnce: a replayed or migrated job keeps its original admission
	// stamp — the span records when the work first entered the system.
	j.spec.Span.MarkOnce(obs.PhaseAdmitted)
	// Admission control: jobs only ever wait in the bounded queue.
	if !s.q.Push(Item{Tenant: spec.Tenant, Cost: float64(spec.N), Value: j}) {
		s.rejected++
		s.tenant(spec.Tenant).rejected++
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		return nil, &SaturatedError{RetryAfter: retry}
	}
	j.spec.Span.Mark(obs.PhaseEnqueued)
	s.accepted++
	s.jobs[j.id] = j
	// Resolve the deadline. An absolute DeadlineAt wins: it was fixed when
	// the work first entered the system, so transport latency and re-
	// placement hops shrink the remaining budget instead of resetting it. A
	// relative Deadline is converted to DeadlineAt here for the same reason
	// — a later migration carries the absolute stamp onward.
	dl := spec.Deadline
	if !spec.DeadlineAt.IsZero() {
		dl = time.Until(spec.DeadlineAt)
		if dl <= 0 {
			dl = time.Nanosecond // already past: expire immediately
		}
	} else if dl > 0 {
		j.spec.DeadlineAt = j.enqueued.Add(dl)
	}
	if dl > 0 {
		j.timer = time.AfterFunc(dl, func() { s.expire(j) })
	}
	s.drainLocked()
	s.mu.Unlock()
	return j, nil
}

// parseJobNum extracts N from a "job-N" identifier.
func parseJobNum(id string) (int64, bool) {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// retryAfterLocked estimates when a queue slot will free: the backlog
// drained at the observed per-job service time, clamped to retryAfterMax —
// one slow job through the EMA must not quote an hours-long hint that an
// obedient client would honor and never return from.
func (s *Server) retryAfterLocked() time.Duration {
	per := s.emaRun
	if per <= 0 {
		per = 0.01
	}
	d := time.Duration(per * float64(s.q.Len()+s.running) / float64(s.maxConcurrent) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > retryAfterMax {
		d = retryAfterMax
	}
	return d
}

// noteAdmissionLocked folds the instantaneous queue occupancy into the
// admission EMA at each submission.
func (s *Server) noteAdmissionLocked() {
	occ := float64(s.q.Len()) / float64(s.q.cap)
	s.emaAdm = 0.6*s.emaAdm + 0.4*occ
}

// Load reports the shard's admission pressure in [0, ~1]: the larger of
// the admission-time occupancy EMA and the instantaneous queue occupancy.
// The shard router spills new jobs away from a home shard whose Load is
// saturated and migrates queued jobs off one that stays saturated.
func (s *Server) Load() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	occ := float64(s.q.Len()) / float64(s.q.cap)
	if occ > s.emaAdm {
		return occ
	}
	return s.emaAdm
}

// HealthInfo is the liveness snapshot served at GET /healthz: alive, plus
// the load signals a shard router's placement and migration decisions read
// between stats scrapes — one cheap RPC refreshes all of them.
type HealthInfo struct {
	OK       bool    `json:"ok"`
	Queued   int     `json:"queued"`
	QueueCap int     `json:"queue_cap"`
	Running  int     `json:"running"`
	Load     float64 `json:"load"`
}

// Health returns the server's liveness snapshot.
func (s *Server) Health() HealthInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	load := float64(s.q.Len()) / float64(s.q.cap)
	if s.emaAdm > load {
		load = s.emaAdm
	}
	return HealthInfo{
		OK:       !s.closed,
		Queued:   s.q.Len(),
		QueueCap: s.q.cap,
		Running:  s.running,
		Load:     load,
	}
}

func (s *Server) tenant(name string) *tenantCounts {
	tc := s.tenants[name]
	if tc == nil {
		tc = &tenantCounts{}
		s.tenants[name] = tc
	}
	return tc
}

// drainLocked starts queued jobs while concurrency slots are free.
func (s *Server) drainLocked() {
	for !s.closed && s.running < s.maxConcurrent {
		it, ok := s.q.Pop()
		if !ok {
			return
		}
		j := it.Value.(*Job)
		j.spec.Span.Mark(obs.PhaseDequeued)
		j.state = StateRunning
		j.started = time.Now()
		j.spec.Span.MarkAt(obs.PhaseStarted, j.started.UnixNano())
		s.running++
		s.wg.Add(1)
		go s.run(j)
	}
}

// finishJobLocked retires one executed job: records its terminal state,
// latency samples and counters, stops its deadline timer, releases its
// fair-queue service slot, and closes its done channel. sum is the kernel
// checksum; ok=false means the cancellation token fired and the result was
// discarded.
func (s *Server) finishJobLocked(j *Job, sum float64, ok bool) {
	j.finished = time.Now()
	if ok && !j.token.Canceled() {
		j.state = StateDone
		j.checksum = sum
		s.completed++
		s.tenant(j.spec.Tenant).completed++
		total := j.finished.Sub(j.enqueued).Seconds()
		runSec := j.finished.Sub(j.started).Seconds()
		s.observeDone(j.spec.Tenant, total, j.started.Sub(j.enqueued).Seconds(), runSec)
		if s.emaRun == 0 {
			s.emaRun = runSec
		} else {
			s.emaRun = 0.8*s.emaRun + 0.2*runSec
		}
	} else {
		j.state = StateCanceled
		if j.reason == "" {
			j.reason = "canceled"
		}
		s.canceled++
		s.tenant(j.spec.Tenant).canceled++
	}
	if j.timer != nil {
		j.timer.Stop()
	}
	s.markTerminal(j, j.finished.UnixNano())
	s.q.Done(j)
	close(j.done)
	s.retireLocked(j)
}

// retireLocked enters a terminal job into the bounded retention ring,
// evicting the oldest terminal records beyond RetainDone so the jobs map
// honors the documented QueueCap + MaxConcurrent + RetainDone bound.
// Queued and running jobs never enter the ring, so they are never evicted.
// A retired job never runs again, so its Fn is dropped: a retained record
// must not keep the body's captures (a window's events) reachable.
func (s *Server) retireLocked(j *Job) {
	j.spec.Fn = nil
	if s.retainDone < 0 {
		return
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.retainDone {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// run executes one job on the shared pool and finalizes it.
func (s *Server) run(j *Job) {
	defer s.wg.Done()
	p := core.Par(s.pool).WithCancel(j.token)
	// The first parallel chunk CASes its wall time into the span's
	// first-chunk slot: started-to-first-chunk is pure dispatch latency.
	p.FirstChunkNS = j.spec.Span.Slot(obs.PhaseFirstChunk)
	sum, ok := runJob(p, j.spec)

	s.mu.Lock()
	s.finishJobLocked(j, sum, ok)
	s.running--
	s.drainLocked()
	s.mu.Unlock()
}

// expire is the deadline path: cancel the job wherever it is.
func (s *Server) expire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateQueued:
		s.q.Remove(func(v any) bool { return v == any(j) })
		s.finishCanceledLocked(j, "deadline")
		s.expired++
	case StateRunning:
		j.reason = "deadline"
		s.expired++
		j.token.Cancel() // run() observes the token and finalizes
	}
}

// finishCanceledLocked retires a job that never ran.
func (s *Server) finishCanceledLocked(j *Job, reason string) {
	j.state = StateCanceled
	j.reason = reason
	j.finished = time.Now()
	j.token.Cancel()
	if j.timer != nil {
		j.timer.Stop()
	}
	s.canceled++
	s.tenant(j.spec.Tenant).canceled++
	s.markTerminal(j, j.finished.UnixNano())
	close(j.done)
	s.retireLocked(j)
}

// WithdrawQueued removes up to max still-queued jobs from the BACK of the
// dispatch order (largest virtual finish — the jobs least likely to run
// soon) and finalizes each as canceled with reason "migrated", without
// billing the WFQ clock, the in-service set, or the tenant cancel
// counters: the jobs are moving to another shard, not dying. The caller
// resubmits its own copy of each job's spec elsewhere; the withdrawn
// records leave this server's jobs map entirely.
func (s *Server) WithdrawQueued(max int) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := s.q.TakeBack(max)
	jobs := make([]*Job, len(items))
	for i, it := range items {
		j := it.Value.(*Job)
		j.state = StateCanceled
		j.reason = "migrated"
		// The span travels with the spec to the next shard; no terminal
		// phase — the job is moving, not dying.
		j.spec.Span.Mark(obs.PhaseMigrated)
		j.finished = time.Now()
		if j.timer != nil {
			j.timer.Stop()
		}
		s.withdrawn++
		delete(s.jobs, j.id)
		close(j.done)
		jobs[i] = j
	}
	return jobs
}

// Cancel cancels a job by ID: a queued job is withdrawn immediately, a
// running one is canceled cooperatively (its workers abandon the job at
// the next chunk boundary). Canceling a finished or unknown job is a
// reported no-op.
func (s *Server) Cancel(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobInfo{}, fmt.Errorf("serve: no job %q", id)
	}
	switch j.state {
	case StateQueued:
		s.q.Remove(func(v any) bool { return v == any(j) })
		s.finishCanceledLocked(j, "canceled")
	case StateRunning:
		j.token.Cancel() // run() finalizes at the next chunk boundary
	}
	return s.infoLocked(j), nil
}

// Get returns a job snapshot.
func (s *Server) Get(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobInfo{}, false
	}
	return s.infoLocked(j), true
}

// Info returns a snapshot of j.
func (s *Server) Info(j *Job) JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(j)
}

func (s *Server) infoLocked(j *Job) JobInfo {
	info := JobInfo{
		ID:     j.id,
		Kernel: j.spec.Kernel,
		N:      j.spec.N,
		Tenant: j.spec.Tenant,
		State:  j.state.String(),
		Reason: j.reason,
	}
	switch j.state {
	case StateQueued:
		info.QueueSeconds = time.Since(j.enqueued).Seconds()
	case StateRunning:
		info.QueueSeconds = j.started.Sub(j.enqueued).Seconds()
		info.RunSeconds = time.Since(j.started).Seconds()
	default:
		if !j.started.IsZero() {
			info.QueueSeconds = j.started.Sub(j.enqueued).Seconds()
			info.RunSeconds = j.finished.Sub(j.started).Seconds()
		} else {
			info.QueueSeconds = j.finished.Sub(j.enqueued).Seconds()
		}
		info.TotalSeconds = j.finished.Sub(j.enqueued).Seconds()
		if j.state == StateDone {
			info.Checksum = j.checksum
		}
	}
	return info
}

// TenantStats is the per-tenant slice of Stats.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Completed int64  `json:"completed"`
	Canceled  int64  `json:"canceled"`
	Rejected  int64  `json:"rejected"`
	// End-to-end latency of completed jobs, seconds. Mean/P50/P99 are
	// cumulative since process start; the Window fields cover only the
	// rolling window (WindowSeconds in Stats) — the pair distinguishes
	// "slow since boot" from "slow right now". Both read the same bucket
	// layout through HistSnapshot.Quantile, so while every completion is
	// inside the window the two views agree exactly.
	MeanSeconds float64 `json:"mean_seconds,omitempty"`
	P50Seconds  float64 `json:"p50_seconds,omitempty"`
	P99Seconds  float64 `json:"p99_seconds,omitempty"`
	// WindowJobs is how many completions the rolling window holds.
	WindowJobs       int64   `json:"window_jobs,omitempty"`
	WindowP50Seconds float64 `json:"window_p50_seconds,omitempty"`
	WindowP99Seconds float64 `json:"window_p99_seconds,omitempty"`
	// SLOSeconds echoes the tenant's latency objective; BurnRate is the
	// windowed error-budget burn (1 = exactly on budget). Both omitted
	// when no objective is configured.
	SLOSeconds float64 `json:"slo_seconds,omitempty"`
	BurnRate   float64 `json:"burn_rate,omitempty"`
}

// Stats is the server-wide snapshot the /stats endpoint serves.
type Stats struct {
	Discipline string `json:"discipline"`
	Workers    int    `json:"workers"`
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	Accepted   int64  `json:"accepted"`
	Rejected   int64  `json:"rejected"`
	Completed  int64  `json:"completed"`
	Canceled   int64  `json:"canceled"`
	Expired    int64  `json:"expired"`
	// Withdrawn counts queued jobs a shard router migrated away.
	Withdrawn int64 `json:"withdrawn,omitempty"`
	// Load is the admission-pressure signal (see Server.Load).
	Load float64 `json:"load"`
	// WindowSeconds is the rolling-window horizon behind the tenants'
	// windowed quantiles.
	WindowSeconds float64       `json:"window_seconds,omitempty"`
	Tenants       []TenantStats `json:"tenants"`
}

// Stats returns a consistent snapshot of the server counters and the
// per-tenant latency distributions.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	st := Stats{
		Discipline: s.q.disc.String(),
		Workers:    s.pool.Workers(),
		Queued:     s.q.Len(),
		Running:    s.running,
		Accepted:   s.accepted,
		Rejected:   s.rejected,
		Completed:  s.completed,
		Canceled:   s.canceled,
		Expired:    s.expired,
		Withdrawn:  s.withdrawn,
	}
	occ := float64(s.q.Len()) / float64(s.q.cap)
	st.Load = s.emaAdm
	if occ > st.Load {
		st.Load = occ
	}
	type pair struct {
		t  string
		tc tenantCounts
	}
	pairs := make([]pair, 0, len(names))
	for _, t := range names {
		pairs = append(pairs, pair{t, *s.tenants[t]})
	}
	s.mu.Unlock()
	// Window snapshots take the windows' own lock; do them outside ours.
	for _, p := range pairs {
		ts := TenantStats{
			Tenant:    p.t,
			Completed: p.tc.completed,
			Canceled:  p.tc.canceled,
			Rejected:  p.tc.rejected,
		}
		if to := s.tenantObsOf(p.t); to != nil {
			if cum := to.lat.Snapshot(); cum.Count > 0 {
				ts.MeanSeconds = cum.Sum / float64(cum.Count)
				ts.P50Seconds = cum.Quantile(0.5)
				ts.P99Seconds = cum.Quantile(0.99)
			}
			if st.WindowSeconds == 0 {
				st.WindowSeconds = to.windows.Span().Seconds()
			}
			snap := to.windows.Snapshot()
			ts.WindowJobs = snap.Count
			ts.WindowP50Seconds = snap.Quantile(0.5)
			ts.WindowP99Seconds = snap.Quantile(0.99)
			if to.slo.Objective > 0 {
				ts.SLOSeconds = to.slo.Objective
				ts.BurnRate = to.slo.BurnRate(snap)
			}
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

// Close drains the server: queued jobs are canceled with reason
// "shutdown", running jobs are canceled cooperatively and waited for, and
// an owned pool is closed. Close is idempotent; Submit fails afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// DrainAll, not a Pop loop: popping bills the WFQ virtual clock for
	// jobs that will never run and inserts each into the in-service set
	// with no Done ever coming, leaking one map entry per drained job.
	for _, it := range s.q.DrainAll() {
		s.finishCanceledLocked(it.Value.(*Job), "shutdown")
	}
	for _, j := range s.jobs {
		if j.state == StateRunning {
			j.reason = "shutdown"
			j.token.Cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.ownPool {
		s.pool.Close()
	}
}
