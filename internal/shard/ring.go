// Package shard is the horizontal scaling layer over internal/serve: a
// Router fronts N in-process serve.Server shards, each with its own
// work-stealing pool, and places jobs by consistent-hash tenant->shard
// assignment with load-aware overflow. The layering repeats the paper's
// scheduling story one level up: the pool's deques balance *chunks* of a
// job across workers, the fair queue balances *jobs* across tenants, and
// the router balances *tenants* across shards — with spill-on-saturation
// and cross-shard migration of queued jobs as the distributed analogue of
// deque stealing (HPX's locality-aware task placement is the reference
// shape). An optional append-only job log makes the tier restart-safe: a
// killed daemon replays the log on startup and resumes its queue with no
// acknowledged job lost and no completed job re-run.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping tenant names to shard indices.
// Each shard owns replicas virtual points on a uint64 ring; a tenant maps
// to the shard owning the first point at or after the tenant's hash.
// Virtual points keep per-shard load shares near 1/N, and changing the
// shard count remaps only the tenants whose nearest point changed —
// roughly a 1/(N+1) fraction — so scaling the tier does not reshuffle
// every tenant's home (the property TestRingStability pins).
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// replicas is the number of virtual points each shard owns on the ring.
const replicas = 64

// NewRing builds a ring over shards shards.
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	members := make([]int, shards)
	for i := range members {
		members[i] = i
	}
	return NewRingOf(members)
}

// NewRingOf builds a ring over an explicit member set. Point names are
// keyed by member identity, not position, so removing a dead member or
// appending a new one leaves every surviving member's points in place —
// only the changed member's arc remaps (the ~1/(N+1) fraction). A router
// with non-contiguous live shards (one died) rebuilds the ring through
// this form.
func NewRingOf(members []int) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(members)*replicas)}
	for _, s := range members {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard-%d/%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Shard returns tenant's home shard: the owner of the first ring point
// clockwise from the tenant's hash.
func (r *Ring) Shard(tenant string) int {
	if len(r.points) == 0 {
		return -1 // every member dead: nothing to place on
	}
	h := hash64(tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hash64 is FNV-1a with a murmur-style avalanche finalizer. Raw FNV of
// short near-identical strings ("shard-2/17", "tenant-413") clusters in
// the upper bits, which on a ring means one shard's points can capture
// most of the keyspace; the final mix spreads every input bit across the
// whole word so arc lengths come out near-uniform.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
