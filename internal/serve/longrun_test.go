package serve

import (
	"fmt"
	"testing"
)

// TestFairQueueLongRunNoLaneLeak simulates the streaming steady state:
// transient tenants (one per short-lived stream or loadgen client) arrive
// forever, push a handful of jobs, and vanish. Across many virtual hours
// of service the lanes map must stay bounded — before lane pruning it
// grew one entry per tenant ever seen — and the virtual clock must stay
// monotone.
func TestFairQueueLongRunNoLaneLeak(t *testing.T) {
	q := NewQueue(WFQ, 1024)
	lastVirtual := -1.0
	const generations = 20000
	for g := 0; g < generations; g++ {
		// Each generation is a fresh tenant that queues 3 jobs...
		tenant := fmt.Sprintf("ephemeral-%d", g)
		for i := 0; i < 3; i++ {
			if !q.Push(Item{Tenant: tenant, Cost: 10, Value: g*10 + i}) {
				t.Fatalf("gen %d: push rejected with %d queued", g, q.Len())
			}
		}
		// ...that are fully served before the next tenant appears.
		for q.Len() > 0 {
			it, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed with items queued")
			}
			q.Done(it.Value)
		}
		if q.virtual < lastVirtual {
			t.Fatalf("gen %d: virtual clock moved backwards %v -> %v", g, lastVirtual, q.virtual)
		}
		lastVirtual = q.virtual
	}
	// 20k tenants went through; an unpruned map would hold all of them.
	if len(q.lanes) > 64 {
		t.Fatalf("lanes map leaked: %d entries after %d transient tenants", len(q.lanes), generations)
	}
	if len(q.counts) != 0 {
		t.Fatalf("counts map leaked: %d entries on an empty queue", len(q.counts))
	}
}

// TestFairQueueLongRunClockTracksService pins the no-drift property: with
// a single persistent weight-1 tenant at cost 1, the virtual clock after N
// served jobs is exactly N — each job's start tag is the previous finish,
// and the clock follows start tags. Any accumulation error or pruning bug
// that rewound a live lane would break the equality.
func TestFairQueueLongRunClockTracksService(t *testing.T) {
	q := NewQueue(WFQ, 8)
	const n = 200000
	for i := 0; i < n; i++ {
		if !q.Push(Item{Tenant: "steady", Cost: 1, Value: i}) {
			t.Fatalf("push %d rejected", i)
		}
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		q.Done(it.Value)
	}
	// Start tags: job i starts at finish of job i-1 = i, so after n jobs
	// the clock sits at the last start tag, n-1.
	if q.virtual != float64(n-1) {
		t.Fatalf("virtual clock %v after %d unit jobs, want %d", q.virtual, n, n-1)
	}
}

// TestFairQueueLaneStatePreservedAcrossPrune checks pruning is invisible
// to scheduling: a tenant whose lane still carries banked debt (finish
// ahead of the clock) is never pruned, so its next job cannot jump the
// line; and a pruned idle tenant rejoins exactly at the virtual clock, the
// same start tag an unpruned stale lane would produce.
func TestFairQueueLaneStatePreservedAcrossPrune(t *testing.T) {
	q := NewQueue(WFQ, 4096)
	// Heavy tenant banks debt: many queued jobs, none served yet.
	for i := 0; i < 10; i++ {
		q.Push(Item{Tenant: "heavy", Cost: 100, Value: 1000 + i})
	}
	heavyFinish := q.lanes["heavy"]
	// Churn enough one-shot tenants to trigger the amortized sweep many
	// times over.
	for g := 0; g < 1000; g++ {
		q.Push(Item{Tenant: fmt.Sprintf("churn-%d", g), Cost: 1, Value: g})
	}
	for q.Len() > 0 {
		it, _ := q.Pop()
		q.Done(it.Value)
	}
	if got := q.lanes["heavy"]; got != heavyFinish {
		t.Fatalf("live lane perturbed by pruning: finish %v, want %v", got, heavyFinish)
	}
	// After service the clock passed every churn lane; they must be gone.
	churned := 0
	for tenant := range q.lanes {
		if tenant != "heavy" {
			churned++
		}
	}
	if churned > 32 {
		t.Fatalf("%d churn lanes survived pruning", churned)
	}
}
