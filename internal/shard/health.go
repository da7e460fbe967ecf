package shard

import (
	"sort"
	"strconv"
	"time"

	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// HealthState is one shard's position in the failure state machine.
// Consecutive heartbeat failures walk a shard healthy -> suspect -> dead;
// one success walks suspect back to healthy. Dead is sticky: a dead
// shard's backlog has already been re-placed, so letting it return would
// double-run jobs — a recovered worker rejoins as a NEW member via
// AddShard instead.
type HealthState int32

const (
	Healthy HealthState = iota
	Suspect
	Dead
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// shardHealth is one shard's health record, guarded by the router lock.
type shardHealth struct {
	state HealthState
	fails int            // consecutive heartbeat failures
	rtt   *obs.Histogram // heartbeat round-trip latency
}

// healthLoop is shard i's heartbeat: one probe per HeartbeatEvery tick
// until the router stops or the shard is declared dead.
func (r *Router) healthLoop(i int) {
	defer r.loopWG.Done()
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if !r.probe(i) {
				return
			}
		}
	}
}

// probe runs one heartbeat against shard i and advances its state machine.
// The Ping itself runs outside the router lock — a stalled worker must not
// stall the whole router. Returns false once the shard is dead (or the
// router closed), ending the loop.
func (r *Router) probe(i int) bool {
	r.mu.Lock()
	if r.closed || r.health[i].state == Dead {
		r.mu.Unlock()
		return false
	}
	h := r.shards[i]
	r.mu.Unlock()

	start := time.Now()
	err := h.Ping()
	rtt := time.Since(start)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.health[i].state == Dead {
		return false
	}
	hs := r.health[i]
	if err == nil {
		hs.rtt.Observe(rtt.Seconds())
		hs.fails = 0
		hs.state = Healthy
		return true
	}
	hs.fails++
	switch {
	case hs.fails >= r.cfg.DeadAfter:
		hs.state = Dead
		r.deaths++
		r.onShardDeadLocked(i)
		return false
	case hs.fails >= r.cfg.SuspectAfter:
		hs.state = Suspect
	}
	return true
}

// onShardDeadLocked is dead-shard recovery: rebuild the ring without the
// dead member (surviving members keep their points, so only the dead arc
// remaps), then re-place every non-terminal job the dead shard held — in
// original admission order — onto the survivors, parking what they cannot
// take in the backlog. The job specs live in the router (with spans and
// absolute deadlines intact), and each job's log "submit" record predates
// its shard accept, so an acked job is never lost with its shard: this is
// the in-process replay guarantee extended across process death.
func (r *Router) onShardDeadLocked(dead int) {
	r.rebuildRingLocked()
	var victims []*Job
	for _, j := range r.jobs {
		if !j.terminal && j.shard == dead {
			victims = append(victims, j)
		}
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a].seq < victims[b].seq })
	for _, j := range victims {
		r.replaceLocked(j)
	}
	// Tear the handle down off the lock: it closes every orphaned job
	// handle, whose watchers then stand down via the incarnation check
	// (the re-placements above already happened under this lock).
	h := r.shards[dead]
	r.loopWG.Add(1)
	go func() {
		defer r.loopWG.Done()
		h.Close()
	}()
}

// rebuildRingLocked rebuilds the placement ring over the live members.
func (r *Router) rebuildRingLocked() {
	var members []int
	for i := range r.shards {
		if r.health[i].state != Dead {
			members = append(members, i)
		}
	}
	r.ring = NewRingOf(members)
}

// AddShard grows the tier under live traffic: h joins the ring as a new
// member, remapping ~1/(N+1) of tenants onto it (survivors keep their ring
// points), and the health plane starts probing it. Returns the new shard's
// index.
func (r *Router) AddShard(h ShardHandle) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return -1, serve.ErrClosed
	}
	i := len(r.shards)
	r.shards = append(r.shards, h)
	r.health = append(r.health, r.newShardHealthLocked(i))
	r.rebuildRingLocked()
	r.registerShardMetrics(i)
	if r.cfg.HeartbeatEvery > 0 {
		r.loopWG.Add(1)
		go r.healthLoop(i)
	}
	return i, nil
}

// newShardHealthLocked builds shard i's health record and registers its
// pull-time state gauge and heartbeat histogram.
func (r *Router) newShardHealthLocked(i int) *shardHealth {
	cm := obs.NewClusterMetrics(r.cfg.Metrics)
	label := strconv.Itoa(i)
	hs := &shardHealth{rtt: cm.HeartbeatRTT(label)}
	cm.HealthState(label, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.health[i].state)
	})
	return hs
}

// HealthOf reports shard i's current health state.
func (r *Router) HealthOf(i int) HealthState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health[i].state
}

// MarkDead force-declares shard i dead, as if its heartbeat threshold had
// tripped — the hook tests and drivers without a heartbeat loop use.
func (r *Router) MarkDead(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.health[i].state == Dead {
		return
	}
	r.health[i].state = Dead
	r.deaths++
	r.onShardDeadLocked(i)
}

// HomeShard returns tenant's current ring placement — the hook the remap-
// fraction measurement and the join smoke use.
func (r *Router) HomeShard(tenant string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Shard(tenant)
}
