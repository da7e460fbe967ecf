// Package serve turns the algorithm library into a long-running
// multi-tenant service: a Server admits algorithm jobs (kernel, size,
// tenant, deadline) onto one shared native.Pool, with bounded admission
// queues, weighted fair scheduling across tenants, and cooperative
// cancellation threaded down to chunk granularity.
//
// The layering mirrors the paper's backend split: the pool's work-stealing
// scheduler balances *chunks* of one job across workers (the TBB-style
// plane the paper measures), while the serving layer schedules *jobs*
// across tenants on top of it. Job-level weighted fair queuing keeps a
// small tenant's latency bounded when a heavy tenant floods the queue —
// the property the ext-serve experiment measures against FIFO.
package serve

import (
	"container/heap"
	"sort"
)

// Discipline selects the job-level queueing policy.
type Discipline int

const (
	// WFQ (the default) serves jobs by start-time weighted fair queuing
	// across tenants: each job gets a virtual finish time advanced by
	// cost/weight on its tenant's virtual lane, and the queue always
	// serves the smallest finish time. A tenant's share of service
	// converges to its weight regardless of how many jobs it keeps queued.
	WFQ Discipline = iota
	// FIFO serves jobs in strict arrival order regardless of tenant — the
	// baseline that lets one heavy tenant starve everyone behind it.
	FIFO
)

func (d Discipline) String() string {
	if d == WFQ {
		return "wfq"
	}
	return "fifo"
}

// ParseDiscipline maps a flag value to a Discipline.
func ParseDiscipline(s string) (Discipline, bool) {
	switch s {
	case "fifo":
		return FIFO, true
	case "wfq":
		return WFQ, true
	}
	return FIFO, false
}

// Item is one queued entry: an opaque value with the tenant and cost that
// drive the fair-queuing clock.
type Item struct {
	// Tenant is the fair-queuing flow the item bills to.
	Tenant string
	// Cost is the service-time estimate in arbitrary units (the serving
	// layer uses the element count); it advances the tenant's virtual lane.
	Cost float64
	// Value is the caller's payload.
	Value any
}

// queued is Item plus its scheduling keys.
type queued struct {
	Item
	seq    uint64  // arrival order: FIFO key and deterministic tie-break
	start  float64 // virtual start time (WFQ)
	finish float64 // virtual finish time (WFQ): the dequeue key
	index  int     // heap position
}

// FairQueue is a bounded job queue under a FIFO or WFQ discipline. Every
// Pop must be paired with a Done for the popped value once its service
// completes: under WFQ the virtual clock cannot pass a job still in
// service. It is not safe for concurrent use — the Server serializes
// access under its own lock, and the discrete-event experiment drives it
// single-threaded.
type FairQueue struct {
	disc    Discipline
	cap     int
	seq     uint64
	virtual float64            // virtual clock: see Pop
	lanes   map[string]float64 // per-tenant virtual finish of the last push
	weights map[string]float64
	counts  map[string]int // queued items per tenant (quota enforcement)
	h       queueHeap

	// inService maps each dispatched payload value to its virtual start
	// tag until Done retires it. The clock follows the MINIMUM start tag
	// among in-service entries (the SFQ(D) rule): with D slots, advancing
	// it to each popped entry's start would let it race ahead through D
	// consecutive pops while the earliest-tagged job is still running, so a
	// tenant arriving mid-burst would be tagged up to D-1 service quanta in
	// the future and lose its earned share. With one slot the minimum is
	// the popped entry's own start tag — the classic SFQ rule, which bounds
	// a light tenant's wait by one in-flight heavy job.
	inService map[any]float64 // payload value -> virtual start tag
}

// NewQueue returns an empty queue with the given discipline and capacity
// (capacity <= 0 means unbounded — the Server always passes a bound).
func NewQueue(d Discipline, capacity int) *FairQueue {
	return &FairQueue{
		disc:      d,
		cap:       capacity,
		lanes:     make(map[string]float64),
		weights:   make(map[string]float64),
		counts:    make(map[string]int),
		inService: make(map[any]float64),
	}
}

// SetWeight fixes a tenant's fair-queuing weight (default 1). Larger
// weights earn proportionally more service under contention.
func (q *FairQueue) SetWeight(tenant string, w float64) {
	if w > 0 {
		q.weights[tenant] = w
	}
}

func (q *FairQueue) weight(tenant string) float64 {
	if w, ok := q.weights[tenant]; ok {
		return w
	}
	return 1
}

// Len returns the number of queued items.
func (q *FairQueue) Len() int { return len(q.h) }

// TenantLen returns the number of queued items billed to tenant — the
// quantity per-tenant quotas bound.
func (q *FairQueue) TenantLen(tenant string) int { return q.counts[tenant] }

// uncount decrements a tenant's queued-item count on any removal path.
func (q *FairQueue) uncount(tenant string) {
	if q.counts[tenant] <= 1 {
		delete(q.counts, tenant)
	} else {
		q.counts[tenant]--
	}
}

// Push enqueues it; false means the queue is at capacity and the item was
// rejected (the admission-control signal).
func (q *FairQueue) Push(it Item) bool {
	if q.cap > 0 && len(q.h) >= q.cap {
		return false
	}
	e := &queued{Item: it, seq: q.seq}
	q.seq++
	if q.disc == WFQ {
		// Start-time fair queuing: a lane that went idle rejoins at the
		// current virtual time instead of keeping banked credit.
		e.start = q.virtual
		if f := q.lanes[it.Tenant]; f > e.start {
			e.start = f
		}
		cost := it.Cost
		if cost <= 0 {
			cost = 1
		}
		e.finish = e.start + cost/q.weight(it.Tenant)
		q.lanes[it.Tenant] = e.finish
	}
	heap.Push(&q.h, e)
	q.counts[it.Tenant]++
	return true
}

// Pop dequeues the next item under the discipline; ok=false when empty.
// The caller must call Done with the item's Value when its service
// completes. Under WFQ the virtual clock advances to the minimum start tag
// still in service (see the inService field), so it stays monotone.
func (q *FairQueue) Pop() (Item, bool) {
	if len(q.h) == 0 {
		return Item{}, false
	}
	e := heap.Pop(&q.h).(*queued)
	q.uncount(e.Tenant)
	if q.disc == WFQ {
		q.noteService(e)
	}
	return e.Item, true
}

// Done retires a popped item's payload value from the in-service set; it
// pairs with every Pop. A no-op for an unknown value.
func (q *FairQueue) Done(v any) {
	delete(q.inService, v)
}

// noteService folds a dispatched entry into the virtual clock.
func (q *FairQueue) noteService(e *queued) {
	q.inService[e.Value] = e.start
	min := e.start
	for _, st := range q.inService {
		if st < min {
			min = st
		}
	}
	if min > q.virtual {
		q.virtual = min
	}
	q.pruneLanes()
}

// pruneLanes drops idle lanes the virtual clock has passed. A lane whose
// tenant has nothing queued and whose banked finish tag is at or behind the
// clock is indistinguishable from an absent one — Push rejoins an absent
// lane at max(virtual, 0) = virtual, exactly what max(virtual, finish)
// yields when finish <= virtual — so deleting it changes no schedule. This
// bounds the lanes map under streaming workloads where transient tenants
// (one lane per short-lived stream or loadgen client) arrive forever; the
// sweep is amortized by only running once the map has clearly outgrown the
// set of tenants that still have items queued.
func (q *FairQueue) pruneLanes() {
	if len(q.lanes) <= 2*len(q.counts)+16 {
		return
	}
	for tenant, finish := range q.lanes {
		if q.counts[tenant] == 0 && finish <= q.virtual {
			delete(q.lanes, tenant)
		}
	}
}

// VirtualLag returns how far the busiest tenant lane has run ahead of the
// WFQ virtual clock — the backlog of earned-but-unserved virtual service.
// Near zero the queue is keeping up; growth means some tenant is queueing
// faster than its weight earns service. Always 0 under FIFO.
func (q *FairQueue) VirtualLag() float64 {
	if q.disc != WFQ {
		return 0
	}
	lag := 0.0
	for tenant, finish := range q.lanes {
		// An idle lane's banked finish tag is stale, not backlog.
		if q.counts[tenant] == 0 {
			continue
		}
		if d := finish - q.virtual; d > lag {
			lag = d
		}
	}
	return lag
}

// TakeBack removes and returns up to max items from the BACK of the
// dispatch order — the largest virtual finish times, the jobs least likely
// to run soon — without touching the virtual clock or the in-service set:
// the items are leaving this queue, not being dispatched by it. The shard
// router migrates these to a less-loaded shard.
func (q *FairQueue) TakeBack(max int) []Item {
	if max <= 0 || len(q.h) == 0 {
		return nil
	}
	picked := make([]*queued, len(q.h))
	copy(picked, q.h)
	sort.Slice(picked, func(i, j int) bool {
		if picked[i].finish != picked[j].finish {
			return picked[i].finish > picked[j].finish
		}
		return picked[i].seq > picked[j].seq
	})
	if len(picked) > max {
		picked = picked[:max]
	}
	out := make([]Item, len(picked))
	for i, e := range picked {
		heap.Remove(&q.h, e.index)
		q.uncount(e.Tenant)
		out[i] = e.Item
	}
	return out
}

// DrainAll empties the queue and returns every item in no particular
// order, WITHOUT advancing the virtual clock or registering anything in
// the in-service set — drained items are being discarded (shutdown), not
// dispatched. Using Pop for this leaks inService entries (no paired Done
// ever comes) and mutates the clock for jobs that never run.
func (q *FairQueue) DrainAll() []Item {
	out := make([]Item, len(q.h))
	for i, e := range q.h {
		out[i] = e.Item
		q.h[i] = nil
	}
	q.h = q.h[:0]
	q.counts = make(map[string]int)
	return out
}

// Remove deletes the first item whose Value matches, returning whether one
// was found — the path a cancellation takes for a still-queued job.
func (q *FairQueue) Remove(match func(v any) bool) bool {
	for _, e := range q.h {
		if match(e.Value) {
			heap.Remove(&q.h, e.index)
			q.uncount(e.Tenant)
			return true
		}
	}
	return false
}

// queueHeap orders by (finish, seq): virtual finish time under WFQ, pure
// arrival order under FIFO (where finish is always 0).
type queueHeap []*queued

func (h queueHeap) Len() int { return len(h) }
func (h queueHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h queueHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *queueHeap) Push(x any) {
	e := x.(*queued)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *queueHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
