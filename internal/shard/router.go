package shard

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// Config configures a Router. The zero value runs one shard with a
// defaulted serve.Config and no durability.
type Config struct {
	// Shards is the number of in-process serve.Server shards (default 1).
	Shards int
	// Serve is the per-shard template. Pool must be nil: every shard owns
	// its own pool (Workers workers each), so one shard's load never
	// steals another shard's cores through a shared substrate.
	Serve serve.Config

	// LogPath enables the append-only job log; "" runs without durability.
	// The group-commit batch is OpenLog's default (32 records / 5ms).
	LogPath string

	// SpillThreshold is the home-shard Load above which a new job spills to
	// the least-loaded shard instead (default 0.75) — admission-time
	// overflow, the cheap half of load balancing.
	SpillThreshold float64
	// MigrateThreshold is the sustained Load above which the rebalancer
	// withdraws queued jobs from the hottest shard and resubmits them on
	// the coldest (default 0.9), provided the coldest sits below half the
	// hottest's load — the expensive half, for jobs that already queued
	// before the imbalance showed.
	MigrateThreshold float64
	// RebalanceEvery is the rebalancer cadence (default 25ms; < 0 disables
	// the background loop — tests drive Rebalance directly).
	RebalanceEvery time.Duration

	// RetainDone bounds the router's terminal job records, like
	// serve.Config.RetainDone (default 1024; -1 unbounded). Replay loads at
	// most this many recovered terminal records.
	RetainDone int

	// Handles, when non-empty, supplies the shard tier directly — remote
	// workers dialed through internal/cluster, or any mix of local and
	// remote handles — and Shards/Serve are not used for construction.
	Handles []ShardHandle
	// Join, when non-nil, enables live ring growth over HTTP: the router's
	// handler accepts POST /cluster/join {"url": ...}, dials the worker
	// through this constructor, and adds it behind the ring. The
	// indirection exists because this package cannot import the transport
	// (internal/cluster imports this package for the handle interface).
	Join func(url string) (ShardHandle, error)
	// HeartbeatEvery paces the per-shard health probes (default 250ms;
	// < 0 disables the health plane — local-only tiers don't need one).
	// SuspectAfter and DeadAfter are the consecutive-failure thresholds of
	// the healthy -> suspect -> dead state machine (defaults 2 and 5).
	HeartbeatEvery time.Duration
	SuspectAfter   int
	DeadAfter      int

	// Metrics, when non-nil, receives the tier's Prometheus instruments:
	// router-level families (shard count, per-shard load, spill/migration/
	// replay counters, backlog, joblog fsync latency and group-commit size)
	// plus every shard server's own families labeled {shard="i"}. The
	// registry is shared — one /metrics endpoint covers the whole tier.
	Metrics *obs.Registry
	// Spans, when non-nil, is the shared terminal-span ring: the router
	// creates each job's lifecycle span at admission (so phase stamps
	// survive spill, migration, and crash-replay) and the shard servers
	// retire spans into this log.
	Spans *obs.SpanLog
}

// migrateBatch caps the jobs moved per rebalance pass.
const migrateBatch = 4

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.SpillThreshold <= 0 {
		c.SpillThreshold = 0.75
	}
	if c.MigrateThreshold <= 0 {
		c.MigrateThreshold = 0.9
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 25 * time.Millisecond
	}
	if c.RetainDone == 0 {
		c.RetainDone = 1024
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5
	}
	return c
}

// Job is the router-side handle of one submission. The router owns job
// identity: shard-level jobs are an implementation detail that can change
// under migration or replay while the router ID stays fixed.
type Job struct {
	id   string
	seq  int64
	spec serve.Spec
	enq  time.Time

	// Guarded by the router lock:
	shard    int       // current shard, -1 while parked in the backlog
	sj       JobHandle // current shard-level incarnation, nil in backlog
	terminal bool
	info     JobInfo // terminal snapshot
	done     chan struct{}
}

// ID returns the router-assigned job identifier (stable across restarts).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job is terminal at the router.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobInfo is a serve.JobInfo plus the shard that holds (or held) the job;
// Shard is -1 for jobs parked in the replay backlog or recovered from the
// log, where the original placement is unknown and irrelevant.
type JobInfo struct {
	serve.JobInfo
	Shard int `json:"shard"`
}

// Router fronts N shards — in-process serve.Servers, separate-process
// workers behind cluster handles, or a mix: consistent-hash placement with
// load-aware spill, cross-shard migration of queued jobs, health-checked
// failover with dead-shard re-placement, live ring growth, and (with a job
// log) crash-safe replay. All client traffic goes through the router; it
// is the only submitter to its shards, which is what makes the
// withdraw-and-resubmit migration race-free.
type Router struct {
	cfg  Config
	ring *Ring
	log  *Log

	mu       sync.Mutex
	shards   []ShardHandle  // append-only; indices are stable member IDs
	health   []*shardHealth // parallel to shards
	jobs     map[string]*Job
	backlog  []*Job // jobs no shard could admit, drained by Rebalance
	doneRing []string
	joined   map[string]int // worker URL -> shard index, for idempotent joins
	nextID   int64
	closed   bool

	accepted, rejected, completed, canceled int64
	spills, migrations, replayed, recovered int64
	replaced, deaths                        int64

	// joinMu serializes /cluster/join handling end to end (dial, probe,
	// AddShard), so two concurrent joins of one URL cannot both pass the
	// dedup check. Never held together with mu.
	joinMu sync.Mutex

	stop    chan struct{}
	loopWG  sync.WaitGroup
	watchWG sync.WaitGroup
}

// New builds the shard tier — cfg.Handles when supplied (remote or mixed
// shards), else cfg.Shards in-process servers on their own pools — plus
// the placement ring, the health plane, and, when cfg.LogPath is set, the
// job log, replaying any records a previous incarnation left behind
// before accepting traffic.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Serve.Pool != nil {
		return nil, errors.New("shard: Config.Serve.Pool must be nil; each shard owns its pool")
	}
	n := cfg.Shards
	if len(cfg.Handles) > 0 {
		n = len(cfg.Handles)
	}
	r := &Router{
		cfg:    cfg,
		ring:   NewRing(n),
		jobs:   make(map[string]*Job),
		joined: make(map[string]int),
		stop:   make(chan struct{}),
	}
	if len(cfg.Handles) > 0 {
		r.shards = append(r.shards, cfg.Handles...)
	} else {
		for i := 0; i < cfg.Shards; i++ {
			sc := cfg.Serve
			sc.Metrics = cfg.Metrics
			sc.Spans = cfg.Spans
			if cfg.Metrics != nil {
				sc.MetricsLabels = append([]string{"shard", strconv.Itoa(i)}, cfg.Serve.MetricsLabels...)
			}
			r.shards = append(r.shards, NewLocal(serve.New(sc)))
		}
	}
	for i := range r.shards {
		r.health = append(r.health, r.newShardHealthLocked(i))
	}
	r.initMetrics(cfg.Metrics)
	if cfg.LogPath != "" {
		log, recs, err := OpenLog(cfg.LogPath, 0, 0)
		if err != nil {
			for _, s := range r.shards {
				s.Close()
			}
			return nil, err
		}
		r.log = log
		if cfg.Metrics != nil {
			log.Instrument(
				cfg.Metrics.Histogram("pstld_joblog_fsync_seconds",
					"Latency of each job-log fsync barrier.", obs.LatencyBuckets),
				cfg.Metrics.Histogram("pstld_joblog_commit_records",
					"Records group-committed per fsync barrier.", obs.SizeBuckets),
			)
		}
		r.mu.Lock()
		r.replayLocked(recs)
		r.mu.Unlock()
	}
	if cfg.RebalanceEvery > 0 {
		r.loopWG.Add(1)
		go r.rebalanceLoop(cfg.RebalanceEvery)
	}
	if cfg.HeartbeatEvery > 0 {
		for i := range r.shards {
			r.loopWG.Add(1)
			go r.healthLoop(i)
		}
	}
	return r, nil
}

// initMetrics registers the router-level families. Pull-time closures take
// the router lock at scrape time; the registry never holds its own lock
// while calling them, so the order is safe.
func (r *Router) initMetrics(m *obs.Registry) {
	if m == nil {
		return
	}
	m.GaugeFunc("pstld_shards", "Shard servers behind the router.",
		func() float64 { r.mu.Lock(); defer r.mu.Unlock(); return float64(len(r.shards)) })
	for i := range r.shards {
		r.registerShardMetrics(i)
	}
	m.GaugeFunc("pstld_backlog", "Replayed jobs still awaiting shard admission.",
		func() float64 { r.mu.Lock(); defer r.mu.Unlock(); return float64(len(r.backlog)) })
	ctr := func(name, help string, f func() int64) {
		m.CounterFunc(name, help, func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(f())
		})
	}
	ctr("pstld_spills_total", "Jobs placed off their home shard at admission.", func() int64 { return r.spills })
	ctr("pstld_migrations_total", "Queued jobs moved between shards by the rebalancer.", func() int64 { return r.migrations })
	ctr("pstld_replayed_total", "Jobs resubmitted from the job log at startup.", func() int64 { return r.replayed })
	ctr("pstld_recovered_total", "Terminal records recovered from the job log.", func() int64 { return r.recovered })
	ctr("pstld_cluster_replaced_total", "Jobs re-placed off dead or lost shards.", func() int64 { return r.replaced })
	ctr("pstld_cluster_shard_deaths_total", "Shards declared dead by the health plane.", func() int64 { return r.deaths })
}

// registerShardMetrics registers shard i's load gauge. Safe under r.mu:
// the registry evaluates pull-time closures without holding its own lock,
// and registration itself never calls back into the router.
func (r *Router) registerShardMetrics(i int) {
	m := r.cfg.Metrics
	if m == nil {
		return
	}
	h := r.shards[i]
	m.GaugeFunc("pstld_shard_load", "Per-shard admission pressure (see serve.Server.Load).",
		h.Load, "shard", strconv.Itoa(i))
}

// Shard returns shard i's in-process server, or nil when shard i is
// remote — the per-shard stats and registry hook for local tiers.
func (r *Router) Shard(i int) *serve.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.shards[i].(*Local); ok {
		return l.Server()
	}
	return nil
}

// Submit admits a job through consistent-hash placement with load-aware
// overflow. Error contract matches serve.Server.Submit; a tier with no
// live shard answers like a closed server.
func (r *Router) Submit(spec serve.Spec) (*Job, error) {
	if spec.Fn != nil {
		// A custom Fn body is an in-process closure: it cannot be serialized
		// into the job log, spilled to another shard, or replayed. Callers
		// that need one (internal/flow) submit to a serve.Server directly.
		return nil, fmt.Errorf("shard: custom Fn jobs are in-process only")
	}
	spec, err := serve.CheckSpec(spec)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, serve.ErrClosed
	}
	r.nextID++
	j := &Job{
		id:   fmt.Sprintf("job-%d", r.nextID),
		seq:  r.nextID,
		spec: spec,
		enq:  time.Now(),
		done: make(chan struct{}),
	}
	// The router owns job identity: the shard-level job carries the router
	// ID, which is what lets a transport retry dedupe on the worker and a
	// withdrawn ID map straight back to this record.
	j.spec.ID = j.id
	// Fix the deadline in absolute terms at first admission, so spills,
	// migrations, and dead-shard re-placements inherit the remaining
	// budget instead of restarting it.
	if j.spec.DeadlineAt.IsZero() && j.spec.Deadline > 0 {
		j.spec.DeadlineAt = j.enq.Add(j.spec.Deadline)
	}
	if r.cfg.Spans != nil {
		// Router-owned span: the stamps travel with the Spec through spill,
		// migration, and (via the log record's Phases) crash-replay.
		j.spec.Span = obs.NewJobSpan(j.id, j.seq, spec.Tenant, spec.Kernel, spec.N)
		j.spec.Span.Mark(obs.PhaseAdmitted)
	}
	if err := r.placeLocked(j); err != nil {
		r.rejected++
		return nil, err
	}
	// Logged only after a shard accepted: every acknowledged job is in the
	// log, and nothing the client never heard of is. The deadline is logged
	// as the budget left at admission, whether the client gave it relative
	// or absolute; an already-expired budget logs as 1 ms so it still
	// expires on replay.
	var deadlineMS int64
	if !j.spec.DeadlineAt.IsZero() {
		deadlineMS = max(int64(j.spec.DeadlineAt.Sub(j.enq)/time.Millisecond), 1)
	}
	r.appendLocked(Record{
		T: "submit", ID: j.id, Seq: j.seq,
		Kernel: spec.Kernel, N: spec.N, Tenant: spec.Tenant,
		DeadlineMS: deadlineMS,
		Phases:     j.spec.Span.Phases(),
	})
	r.jobs[j.id] = j
	r.accepted++
	r.watchLocked(j)
	return j, nil
}

// errNoShards reports a tier whose live members are all gone. It matches
// serve.ErrClosed, so HTTP answers 503 — the tier cannot take work, the
// request is not at fault.
var errNoShards error = noShardsError{}

type noShardsError struct{}

func (noShardsError) Error() string        { return "shard: no live shards" }
func (noShardsError) Is(target error) bool { return target == serve.ErrClosed }

// placeLocked picks a shard and submits j: the consistent-hash home
// first, spilled to the least-loaded live shard when the home is suspect
// or its admission EMA saturates, with one more attempt on the least-
// loaded shard when the first choice rejects — a saturated queue or, for
// a remote shard, a transport failure the health plane has not yet
// caught.
func (r *Router) placeLocked(j *Job) error {
	home := r.ring.Shard(j.spec.Tenant)
	if home < 0 {
		return errNoShards
	}
	target := home
	if r.health[home].state != Healthy || r.shards[home].Load() >= r.cfg.SpillThreshold {
		if ll := r.leastLoadedLocked(); ll >= 0 && ll != home {
			target = ll
		}
	}
	sj, err := r.shards[target].Submit(j.spec)
	if err != nil {
		if !retriablePlacement(err) {
			return err
		}
		alt := r.leastLoadedLocked()
		if alt < 0 || alt == target {
			return err
		}
		if sj, err = r.shards[alt].Submit(j.spec); err != nil {
			return err
		}
		target = alt
	}
	if target != home {
		r.spills++
	}
	j.spec.Span.SetShard(target)
	j.shard = target
	j.sj = sj
	return nil
}

// placeOrParkLocked is the one way an admitted job (re)enters the tier:
// placed on a shard with its watcher started, or parked in the backlog for
// the next Rebalance when no shard can take it now.
func (r *Router) placeOrParkLocked(j *Job) {
	if err := r.placeLocked(j); err != nil {
		j.sj, j.shard = nil, -1
		r.backlog = append(r.backlog, j)
		return
	}
	r.watchLocked(j)
}

// replaceLocked re-places a job its shard lost (worker restart, shard
// death): the job migrates, it does not end.
func (r *Router) replaceLocked(j *Job) {
	j.spec.Span.Mark(obs.PhaseMigrated)
	r.replaced++
	r.placeOrParkLocked(j)
}

// finishLocked is the one terminal transition: j takes its final snapshot,
// bumps ctr, logs a complete record when logged (recovered records and
// shutdown cancellations are not), wakes its waiters, and enters the
// bounded done ring.
func (r *Router) finishLocked(j *Job, info JobInfo, ctr *int64, logged bool) {
	j.terminal = true
	j.info = info
	*ctr++
	if logged {
		rec := Record{T: "complete", ID: j.id, State: info.State}
		if info.State == "done" {
			rec.Checksum = info.Checksum
		} else {
			rec.Reason = info.Reason
		}
		r.appendLocked(rec)
	}
	close(j.done)
	r.retireLocked(j)
}

// routerInfo is the snapshot of a job no shard holds: parked in the
// backlog, recovered from the log, or finalized by the router itself.
func (j *Job) routerInfo(state, reason string) JobInfo {
	return JobInfo{JobInfo: serve.JobInfo{
		ID: j.id, Kernel: j.spec.Kernel, N: j.spec.N, Tenant: j.spec.Tenant,
		State: state, Reason: reason,
	}, Shard: -1}
}

// retriablePlacement reports whether a submit failure is worth one retry
// on another shard: saturation always, and any non-spec failure (a remote
// shard's transport error) — an invalid spec would fail identically
// everywhere, but the router validates specs before placing, so remaining
// errors are shard-local.
func retriablePlacement(err error) bool {
	var sat *serve.SaturatedError
	if errors.As(err, &sat) {
		return true
	}
	return !errors.Is(err, serve.ErrClosed)
}

// leastLoadedLocked returns the least-loaded healthy shard, falling back
// to suspect shards when no healthy one exists, and -1 when every member
// is dead.
func (r *Router) leastLoadedLocked() int {
	best := -1
	var bestL float64
	for _, want := range []HealthState{Healthy, Suspect} {
		for i := range r.shards {
			if r.health[i].state != want {
				continue
			}
			if l := r.shards[i].Load(); best < 0 || l < bestL {
				best, bestL = i, l
			}
		}
		if best >= 0 {
			return best
		}
	}
	return best
}

// watchLocked spawns the completion watcher for j's current shard-level
// incarnation. A migrated job gets a new watcher; the old one recognizes
// the swap and stands down.
func (r *Router) watchLocked(j *Job) {
	r.watchWG.Add(1)
	go r.watch(j, j.sj, j.shard)
}

func (r *Router) watch(j *Job, sj JobHandle, shard int) {
	defer r.watchWG.Done()
	<-sj.Done()
	r.mu.Lock()
	h := r.shards[shard]
	r.mu.Unlock()
	info := h.Info(sj)
	r.mu.Lock()
	defer r.mu.Unlock()
	if j.sj != sj {
		return // migrated or re-placed: a newer incarnation owns this job
	}
	info.ID = j.id
	// A shard that lost the job (worker restart, dead-shard teardown) or
	// shut down under a live router hands the job back, not a terminal
	// state: the router re-places it on a surviving shard. The exactly-once
	// guarantee holds because only the router delivers terminal states.
	if !r.closed && info.State == "canceled" && (info.Reason == "lost" || info.Reason == "shutdown") {
		r.replaceLocked(j)
		return
	}
	ctr := &r.canceled
	if info.State == "done" {
		ctr = &r.completed
	}
	// Crash-consistent shutdown: no record, so the job replays as pending
	// on the next start instead of dying with the process.
	r.finishLocked(j, JobInfo{JobInfo: info, Shard: shard}, ctr, info.Reason != "shutdown")
}

// appendLocked writes a log record; a nil (disabled) or severed (killed)
// log is a no-op — in-memory serving continues either way.
func (r *Router) appendLocked(rec Record) {
	if r.log != nil {
		r.log.Append(rec)
	}
}

// retireLocked bounds the terminal records like serve.Server.retireLocked.
func (r *Router) retireLocked(j *Job) {
	if r.cfg.RetainDone < 0 {
		return
	}
	r.doneRing = append(r.doneRing, j.id)
	for len(r.doneRing) > r.cfg.RetainDone {
		delete(r.jobs, r.doneRing[0])
		r.doneRing = r.doneRing[1:]
	}
}

// Get returns a job snapshot by router ID.
func (r *Router) Get(id string) (JobInfo, bool) {
	r.mu.Lock()
	j := r.jobs[id]
	if j == nil {
		r.mu.Unlock()
		return JobInfo{}, false
	}
	if j.terminal {
		info := j.info
		r.mu.Unlock()
		return info, true
	}
	if j.sj == nil {
		info := j.routerInfo("queued", "")
		info.QueueSeconds = time.Since(j.enq).Seconds()
		r.mu.Unlock()
		return info, true
	}
	sj, shard, h := j.sj, j.shard, r.shards[j.shard]
	r.mu.Unlock()
	info := h.Info(sj)
	info.ID = id
	return JobInfo{JobInfo: info, Shard: shard}, true
}

// Cancel cancels a job by router ID, logging the intent before acting so
// a crash between the ack and the completion record still replays the job
// as canceled, never as runnable.
func (r *Router) Cancel(id string) (JobInfo, error) {
	r.mu.Lock()
	j := r.jobs[id]
	if j == nil {
		r.mu.Unlock()
		return JobInfo{}, fmt.Errorf("shard: no job %q", id)
	}
	if j.terminal {
		info := j.info
		r.mu.Unlock()
		return info, nil
	}
	if j.sj == nil {
		// Backlog job: never reached a shard, finalize right here.
		r.dropBacklogLocked(j)
		info := j.routerInfo("canceled", "canceled")
		info.QueueSeconds = time.Since(j.enq).Seconds()
		info.TotalSeconds = info.QueueSeconds
		if sp := j.spec.Span; sp != nil {
			sp.Mark(obs.PhaseCanceled)
			r.cfg.Spans.Add(sp)
		}
		r.finishLocked(j, info, &r.canceled, true)
		r.mu.Unlock()
		return info, nil
	}
	r.appendLocked(Record{T: "cancel", ID: id})
	sj, shard, h := j.sj, j.shard, r.shards[j.shard]
	r.mu.Unlock()
	info, err := h.Cancel(sj.ID())
	if err != nil {
		return JobInfo{}, err
	}
	info.ID = id
	return JobInfo{JobInfo: info, Shard: shard}, nil
}

func (r *Router) dropBacklogLocked(j *Job) {
	r.backlog = slices.DeleteFunc(r.backlog, func(b *Job) bool { return b == j })
}

// replayLocked reconstructs state from a previous incarnation's records:
// jobs with a durable complete record are recovered as terminal (never
// re-run — the exactly-once guard), a durable cancel with no completion
// finalizes as canceled now, and everything else is resubmitted in the
// original order — through normal placement, overflowing into the backlog
// when the shards cannot take the whole queue at once.
func (r *Router) replayLocked(recs []Record) {
	submits := make(map[string]Record)
	completes := make(map[string]Record)
	cancels := make(map[string]bool)
	var order []string
	for _, rec := range recs {
		switch rec.T {
		case "submit":
			if _, dup := submits[rec.ID]; !dup {
				submits[rec.ID] = rec
				order = append(order, rec.ID)
			}
			if rec.Seq > r.nextID {
				r.nextID = rec.Seq
			}
		case "cancel":
			cancels[rec.ID] = true
		case "complete":
			completes[rec.ID] = rec
		}
	}
	for _, id := range order {
		rec := submits[id]
		spec := serve.Spec{
			ID: id, Kernel: rec.Kernel, N: rec.N, Tenant: rec.Tenant,
			Deadline: time.Duration(rec.DeadlineMS) * time.Millisecond,
		}
		j := &Job{id: id, seq: rec.Seq, spec: spec, enq: time.Now(), shard: -1, done: make(chan struct{})}
		r.jobs[id] = j
		if c, ok := completes[id]; ok {
			info := j.routerInfo(c.State, c.Reason)
			info.Checksum = c.Checksum
			r.finishLocked(j, info, &r.recovered, false)
			continue
		}
		if cancels[id] {
			r.finishLocked(j, j.routerInfo("canceled", "canceled"), &r.recovered, true)
			continue
		}
		// Pending: resume. The deadline budget restarts from now — the
		// original submission's wall clock did not survive the crash.
		if r.cfg.Spans != nil {
			// The new incarnation's span starts from the logged pre-crash
			// phases (the original admission stamp above all), plus a
			// replayed mark dating the restart.
			sp := obs.NewJobSpan(id, rec.Seq, spec.Tenant, spec.Kernel, spec.N)
			sp.SeedPhases(rec.Phases)
			sp.Mark(obs.PhaseReplayed)
			j.spec.Span = sp
		}
		r.replayed++
		r.placeOrParkLocked(j)
	}
}

func (r *Router) rebalanceLoop(every time.Duration) {
	defer r.loopWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Rebalance()
		}
	}
}

// Rebalance runs one balancing pass: drain the replay backlog into shards
// with room, then — when the hottest shard stays saturated while the
// coldest sits under half its load — withdraw queued jobs from the back
// of the hot shard's dispatch order and resubmit them on the cold one.
// Exported so tests and single-threaded drivers can pace it directly.
func (r *Router) Rebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.drainBacklogLocked()
	hot, cold := -1, -1
	var hotL, coldL float64
	for i := range r.shards {
		if r.health[i].state == Dead {
			continue
		}
		l := r.shards[i].Load()
		if hot < 0 || l > hotL {
			hot, hotL = i, l
		}
		if cold < 0 || l < coldL {
			cold, coldL = i, l
		}
	}
	if hot < 0 || hot == cold || hotL < r.cfg.MigrateThreshold || coldL > hotL/2 {
		return
	}
	// The router is the only submitter, so the room observed here cannot
	// be taken by anyone else before the resubmits below.
	room := r.shards[cold].QueueCap() - r.shards[cold].Queued()
	batch := migrateBatch
	if batch > room {
		batch = room
	}
	if batch <= 0 {
		return
	}
	// For a remote hot shard, Withdraw is an RPC under the router lock —
	// bounded by the client's per-request timeout, and deadlock-free
	// because handles never call back into the router.
	_, hotLocal := r.shards[hot].(*Local)
	for _, id := range r.shards[hot].Withdraw(batch) {
		j := r.jobs[id]
		if j == nil || j.terminal {
			continue
		}
		if !hotLocal {
			// A local withdraw marks the shared span inside serve; a remote
			// worker's span is its own copy, so stamp the router's here.
			j.spec.Span.Mark(obs.PhaseMigrated)
		}
		nsj, err := r.shards[cold].Submit(j.spec)
		if err != nil {
			// The cold shard refused after all: normal placement takes it
			// (the hot shard just freed a slot), or the backlog does.
			r.placeOrParkLocked(j)
			continue
		}
		r.migrations++
		j.sj, j.shard = nsj, cold
		j.spec.Span.SetShard(cold)
		r.watchLocked(j)
	}
}

// drainBacklogLocked offers every parked job to placement again, in
// parking order; what still does not fit parks again.
func (r *Router) drainBacklogLocked() {
	parked := r.backlog
	r.backlog = nil
	for _, j := range parked {
		r.placeOrParkLocked(j)
	}
}

// ShardStats is one shard's slice of the router stats.
type ShardStats struct {
	Shard int `json:"shard"`
	// Health is the router's view of the shard: healthy, suspect, or dead.
	Health string `json:"health"`
	serve.Stats
}

// Stats is the router-wide snapshot the /stats endpoint serves.
type Stats struct {
	Shards     int    `json:"shards"`
	Discipline string `json:"discipline"`
	Joblog     bool   `json:"joblog"`
	Accepted   int64  `json:"accepted"`
	Rejected   int64  `json:"rejected"`
	Completed  int64  `json:"completed"`
	Canceled   int64  `json:"canceled"`
	// Spills counts jobs placed off their home shard at admission;
	// Migrations counts queued jobs moved between shards by the rebalancer.
	Spills     int64 `json:"spills"`
	Migrations int64 `json:"migrations"`
	// Replayed counts jobs resubmitted from the log at startup; Recovered
	// counts terminal records loaded from it; Backlog is the replay
	// overflow still waiting for shard admission.
	Replayed  int64 `json:"replayed"`
	Recovered int64 `json:"recovered"`
	Backlog   int   `json:"backlog"`
	// Replaced counts jobs re-placed off dead or lost shards; Deaths
	// counts shards the health plane declared dead; HealthyShards is the
	// current live membership.
	Replaced      int64        `json:"replaced"`
	Deaths        int64        `json:"shard_deaths"`
	HealthyShards int          `json:"healthy_shards"`
	PerShard      []ShardStats `json:"per_shard"`
}

// HealthInfo is the router's GET /healthz snapshot: OK while the router is
// open and at least one shard is healthy — the condition under which a new
// submission can actually be placed. External probes and the streaming
// driver share this one readiness check across every pstld mode.
type HealthInfo struct {
	OK            bool `json:"ok"`
	Shards        int  `json:"shards"`
	HealthyShards int  `json:"healthy_shards"`
	Backlog       int  `json:"backlog"`
}

// Health returns the router's liveness snapshot.
func (r *Router) Health() HealthInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := HealthInfo{Shards: len(r.shards), Backlog: len(r.backlog)}
	for i := range r.shards {
		if r.health[i].state == Healthy {
			h.HealthyShards++
		}
	}
	h.OK = !r.closed && h.HealthyShards > 0
	return h
}

// Stats returns a consistent snapshot of the router counters plus each
// shard's own Stats.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		Shards:    len(r.shards),
		Joblog:    r.log != nil,
		Accepted:  r.accepted,
		Rejected:  r.rejected,
		Completed: r.completed,
		Canceled:  r.canceled,
		Spills:    r.spills, Migrations: r.migrations,
		Replayed: r.replayed, Recovered: r.recovered,
		Backlog:  len(r.backlog),
		Replaced: r.replaced, Deaths: r.deaths,
	}
	shards := append([]ShardHandle(nil), r.shards...)
	states := make([]HealthState, len(shards))
	for i := range shards {
		states[i] = r.health[i].state
		if states[i] == Healthy {
			st.HealthyShards++
		}
	}
	r.mu.Unlock()
	// Shard stats take each shard's own lock (or an RPC for a remote
	// shard, which serves a cached snapshot once unreachable); collect
	// them outside ours. Dead shards report their last known stats.
	for i, s := range shards {
		st.PerShard = append(st.PerShard, ShardStats{Shard: i, Health: states[i].String(), Stats: s.Stats()})
	}
	st.Discipline = st.PerShard[0].Discipline
	return st
}

// Close shuts the tier down gracefully: the rebalancer stops, shards
// cancel their backlogs with reason "shutdown" and wait for running jobs,
// and the log is synced and closed. Shutdown cancellations are not logged
// as terminal, so a logged router resumes them on the next start — Close
// is crash-consistent by design.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.watchWG.Wait()
		return
	}
	r.closed = true
	close(r.stop)
	for _, j := range r.backlog {
		r.finishLocked(j, j.routerInfo("canceled", "shutdown"), &r.canceled, false)
	}
	r.backlog = nil
	shards := append([]ShardHandle(nil), r.shards...)
	r.mu.Unlock()
	r.loopWG.Wait()
	for _, s := range shards {
		s.Close()
	}
	r.watchWG.Wait()
	if r.log != nil {
		r.log.Close()
	}
}

// Kill simulates a crash for the kill-and-replay tests: the log is
// severed first (anything not yet appended is lost, exactly as SIGKILL
// would lose it), then the shards are torn down without completion
// records. The joblog on disk is left as a real crash would leave it.
func (r *Router) Kill() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	if r.log != nil {
		r.log.Kill()
	}
	shards := append([]ShardHandle(nil), r.shards...)
	r.mu.Unlock()
	r.loopWG.Wait()
	for _, s := range shards {
		s.Close()
	}
	r.watchWG.Wait()
}
