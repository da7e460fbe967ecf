package cluster

import (
	"sync"
	"time"

	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
)

// RemoteConfig configures a RemoteShard.
type RemoteConfig struct {
	Client ClientConfig
	// PollEvery paces the batched status poll for in-flight jobs (default
	// 20ms). One POST /jobs/poll per cycle carries every in-flight ID.
	PollEvery time.Duration
}

// RemoteShard adapts one `pstld -worker` process to shard.ShardHandle:
// the router submits, cancels, withdraws, and heartbeats through it
// exactly as it would an in-process shard. Completion delivery is a poll
// loop rather than a push channel — the worker stays a plain HTTP server
// with no connection back into the router, so worker death is just a
// failed poll, not a broken callback path.
//
// A job the worker no longer knows (restart, eviction) finishes here as
// canceled with reason "lost"; the router's watcher re-places lost jobs
// on a surviving shard, which is how exactly-once completion survives
// worker death: only the router delivers terminal states, and it delivers
// exactly one per job.
type RemoteShard struct {
	c         *Client
	pollEvery time.Duration

	mu       sync.Mutex
	inflight map[string]*remoteJob
	load     float64
	queued   int
	qcap     int
	last     serve.Stats
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRemoteShard dials nothing: it builds the client and starts the poll
// loop. The first heartbeat or submit is the first contact.
func NewRemoteShard(cfg RemoteConfig) *RemoteShard {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 20 * time.Millisecond
	}
	r := &RemoteShard{
		c:         NewClient(cfg.Client),
		pollEvery: cfg.PollEvery,
		inflight:  make(map[string]*remoteJob),
		stop:      make(chan struct{}),
	}
	r.wg.Add(1)
	go r.pollLoop()
	return r
}

// remoteJob is the handle for one job on the worker.
type remoteJob struct {
	id   string
	done chan struct{}

	mu       sync.Mutex
	info     serve.JobInfo
	terminal bool
}

func (j *remoteJob) ID() string            { return j.id }
func (j *remoteJob) Done() <-chan struct{} { return j.done }

func (j *remoteJob) setInfo(info serve.JobInfo) {
	j.mu.Lock()
	if !j.terminal {
		j.info = info
	}
	j.mu.Unlock()
}

// finish records the terminal snapshot and closes done, once.
func (j *remoteJob) finish(info serve.JobInfo) {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return
	}
	j.terminal = true
	j.info = info
	j.mu.Unlock()
	close(j.done)
}

func lostInfo(id string) serve.JobInfo {
	return serve.JobInfo{ID: id, State: "canceled", Reason: "lost"}
}

func terminalState(state string) bool {
	return state == "done" || state == "canceled"
}

// Submit places the job on the worker. The client retries transport
// failures; the worker dedupes on spec.ID, so a retried accept returns
// the same job. If the ID is already in flight here (a router resubmit
// racing a retry), the existing handle is returned, so one job has one
// handle and the router's incarnation check (`j.sj != sj`) holds.
func (r *RemoteShard) Submit(spec serve.Spec) (shard.JobHandle, error) {
	info, err := r.c.Submit(spec)
	if err != nil {
		return nil, err
	}
	id := spec.ID
	if id == "" {
		id = info.ID
	}
	r.mu.Lock()
	if ex := r.inflight[id]; ex != nil {
		r.mu.Unlock()
		return ex, nil
	}
	j := &remoteJob{id: id, done: make(chan struct{}), info: info}
	if r.closed {
		r.mu.Unlock()
		j.finish(lostInfo(id))
		return j, nil
	}
	if terminalState(info.State) {
		// Deduped resubmit of an already-finished job: terminal on arrival.
		r.mu.Unlock()
		j.finish(info)
		return j, nil
	}
	r.inflight[id] = j
	r.mu.Unlock()
	return j, nil
}

func (r *RemoteShard) pollLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.pollEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.pollOnce()
		}
	}
}

// pollOnce drives every in-flight job's state forward with one RPC. A
// failed poll changes nothing — the health plane owns deciding when the
// worker is dead; a missing ID means the worker lost the job (restart),
// which finishes the handle as lost so the router re-places it.
func (r *RemoteShard) pollOnce() {
	r.mu.Lock()
	if len(r.inflight) == 0 {
		r.mu.Unlock()
		return
	}
	ids := make([]string, 0, len(r.inflight))
	for id := range r.inflight {
		ids = append(ids, id)
	}
	r.mu.Unlock()

	jobs, missing, err := r.c.Poll(ids)
	if err != nil {
		return
	}
	var finished []*remoteJob
	var infos []serve.JobInfo
	r.mu.Lock()
	for _, info := range jobs {
		j := r.inflight[info.ID]
		if j == nil {
			continue
		}
		if terminalState(info.State) {
			delete(r.inflight, info.ID)
			finished = append(finished, j)
			infos = append(infos, info)
		} else {
			j.setInfo(info)
		}
	}
	for _, id := range missing {
		if j := r.inflight[id]; j != nil {
			delete(r.inflight, id)
			finished = append(finished, j)
			infos = append(infos, lostInfo(id))
		}
	}
	r.mu.Unlock()
	// finish outside r.mu: closing done wakes router watchers, which take
	// the router lock; keeping our lock out of that path avoids ever
	// forming a lock cycle with callers that hold the router lock.
	for i, j := range finished {
		j.finish(infos[i])
	}
}

// Info returns the job's snapshot: the terminal one for finished handles,
// a live fetch for in-flight ones (status queries want current state),
// falling back to the last poll's snapshot when the worker is unreachable.
func (r *RemoteShard) Info(h shard.JobHandle) serve.JobInfo {
	j := h.(*remoteJob)
	j.mu.Lock()
	terminal, cached := j.terminal, j.info
	j.mu.Unlock()
	if terminal {
		return cached
	}
	if info, found, err := r.c.Get(j.id); err == nil && found {
		j.setInfo(info)
		return info
	}
	return cached
}

// Cancel cancels the job on the worker; the terminal state flows back
// through the poll loop like any other completion.
func (r *RemoteShard) Cancel(id string) (serve.JobInfo, error) {
	return r.c.Cancel(id)
}

// Withdraw pulls queued jobs off the worker for migration and finishes
// their local handles as migrated; the router resubmits from its own
// specs. A transport failure withdraws nothing — if the worker actually
// dequeued, those jobs surface as poll misses and re-place via the lost
// path, so the no-retry policy loses no jobs.
func (r *RemoteShard) Withdraw(max int) []string {
	ids, err := r.c.Withdraw(max)
	if err != nil {
		return nil
	}
	var finished []*remoteJob
	r.mu.Lock()
	for _, id := range ids {
		if j := r.inflight[id]; j != nil {
			delete(r.inflight, id)
			finished = append(finished, j)
		}
	}
	r.mu.Unlock()
	for _, j := range finished {
		j.finish(serve.JobInfo{ID: j.id, State: "canceled", Reason: "migrated"})
	}
	return ids
}

// Load, Queued, and QueueCap serve the last heartbeat's snapshot — the
// placement signals lag by at most one heartbeat instead of costing an
// RPC per submit.
func (r *RemoteShard) Load() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.load
}

func (r *RemoteShard) Queued() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queued
}

func (r *RemoteShard) QueueCap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.qcap
}

// Stats fetches the worker's stats, caching the last good snapshot so a
// dead worker's slice of the router stats shows its final numbers instead
// of zeros.
func (r *RemoteShard) Stats() serve.Stats {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if !closed {
		if st, err := r.c.Stats(); err == nil {
			r.mu.Lock()
			r.last = st
			r.mu.Unlock()
			return st
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Ping is the heartbeat: one GET /healthz, refreshing the cached load
// signals on success.
func (r *RemoteShard) Ping() error {
	h, err := r.c.Healthz()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.load, r.queued, r.qcap = h.Load, h.Queued, h.QueueCap
	r.mu.Unlock()
	return nil
}

// Close stops the poll loop and finishes every in-flight handle as lost.
// The router closes a handle only after re-placing its jobs (dead-shard
// recovery), so the lost completions only release stale watchers.
func (r *RemoteShard) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	orphans := r.inflight
	r.inflight = make(map[string]*remoteJob)
	r.mu.Unlock()
	r.wg.Wait()
	for id, j := range orphans {
		j.finish(lostInfo(id))
	}
}
