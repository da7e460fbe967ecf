package shard

import (
	"fmt"
	"testing"
)

const ringTenants = 10000

// TestRingDeterministic pins that placement is a pure function of the
// tenant name and ring shape — the property replay relies on.
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	for i := 0; i < ringTenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if a.Shard(name) != b.Shard(name) {
			t.Fatalf("tenant %q: ring placement not deterministic (%d vs %d)", name, a.Shard(name), b.Shard(name))
		}
	}
}

// TestRingBalance checks virtual points keep shard shares near 1/N.
func TestRingBalance(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		ring := NewRing(shards)
		counts := make([]int, shards)
		for i := 0; i < ringTenants; i++ {
			counts[ring.Shard(fmt.Sprintf("tenant-%d", i))]++
		}
		ideal := 1.0 / float64(shards)
		for s, c := range counts {
			share := float64(c) / ringTenants
			if share < ideal*0.5 || share > ideal*1.6 {
				t.Errorf("shards=%d: shard %d holds %.3f of tenants, ideal %.3f", shards, s, share, ideal)
			}
		}
	}
}

// TestRingStability is the consistent-hash contract: growing the ring from
// N to N+1 shards remaps roughly a 1/(N+1) fraction of tenants, and every
// tenant that moves, moves onto the new shard — existing shards never
// trade tenants with each other.
func TestRingStability(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		before, after := NewRing(n), NewRing(n+1)
		moved := 0
		for i := 0; i < ringTenants; i++ {
			name := fmt.Sprintf("tenant-%d", i)
			a, b := before.Shard(name), after.Shard(name)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("n=%d: tenant %q moved %d -> %d; movers must land on the new shard %d", n, name, a, b, n)
			}
		}
		frac := float64(moved) / ringTenants
		ideal := 1.0 / float64(n+1)
		if frac < ideal*0.4 || frac > ideal*2.0 {
			t.Errorf("n=%d->%d: %.3f of tenants remapped, want near %.3f", n, n+1, frac, ideal)
		}
	}
}
