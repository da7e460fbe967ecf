package native

import (
	"fmt"

	"pstlbench/internal/machine"
)

// Topology maps pool workers onto NUMA nodes (and optionally sockets) so
// victim selection can prefer nearby queues. The zero value means "flat":
// no locality information, every victim is equally close, and all steals
// are reported as local — the pre-topology behavior.
//
// The paper's Table 5/6 knee is driven by steals dragging first-touched
// data across the Zen fabric; a topology lets the pool scan same-node
// victims (randomized within the node) before same-socket ones, and those
// before fully remote ones, the locality-ordered stealing HPX uses to
// close that gap.
type Topology struct {
	// Nodes[w] is the NUMA node of worker w. Required (non-nil) for a
	// non-flat topology; length must equal the pool's worker count.
	Nodes []int
	// Sockets[w] is the socket of worker w. Optional: nil places every
	// worker on one socket, collapsing the middle tier.
	Sockets []int
}

// flat reports whether the topology carries no locality information.
func (t Topology) flat() bool { return t.Nodes == nil }

func (t Topology) socketOf(w int) int {
	if t.Sockets == nil {
		return 0
	}
	return t.Sockets[w]
}

// TopologyFromMachine pins workers compactly onto the machine's cores in
// ID order (worker w -> core w, wrapping when workers exceed cores), the
// OMP_PLACES=cores-style placement the paper benchmarks under, and returns
// the induced worker topology.
func TopologyFromMachine(m *machine.Machine, workers int) Topology {
	if workers < 1 {
		workers = 1
	}
	t := Topology{Nodes: make([]int, workers), Sockets: make([]int, workers)}
	for w := 0; w < workers; w++ {
		core := w % m.Cores
		t.Nodes[w] = m.NodeOf(core)
		t.Sockets[w] = m.SocketOf(core)
	}
	return t
}

// SplitTopology is a synthetic topology dividing workers into the given
// number of consecutive, equal-as-possible NUMA nodes on one socket. It is
// the topology used by tests and benchmarks on hosts whose real layout is
// unknown: steal locality is then purely a property of worker IDs.
func SplitTopology(workers, nodes int) Topology {
	if workers < 1 {
		workers = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	if nodes > workers {
		nodes = workers
	}
	t := Topology{Nodes: make([]int, workers)}
	for w := 0; w < workers; w++ {
		t.Nodes[w] = w * nodes / workers
	}
	return t
}

// stealOrder is one scanner's precomputed victim list: every other worker,
// nearest tier first (same node, then same socket, then remote), with
// tiers[k] the end offset of tier k within victims. Scans randomize the
// start within each tier but never visit a farther tier before exhausting
// a nearer one. Flat pools have a single tier holding everyone.
type stealOrder struct {
	victims []int32
	tiers   []int
}

// scan calls try on each victim, nearest tier first with the start within
// each tier rotated by bits of r, until try reports success. It returns that
// victim, or -1 when every try failed. Every victim scan in the pool (queue
// steals by workers and waiting callers, band half-steals) walks this loop.
func (o *stealOrder) scan(r uint64, try func(v int) bool) int {
	lo := 0
	for _, end := range o.tiers {
		if n := end - lo; n > 0 {
			rot := int(r % uint64(n))
			for k := 0; k < n; k++ {
				if v := int(o.victims[lo+(rot+k)%n]); try(v) {
					return v
				}
			}
		}
		lo, r = end, r>>8
	}
	return -1
}

// buildStealOrders precomputes the victim order for every scanner: worker
// ids 0..workers-1 plus the caller pseudo-worker (id == workers), which is
// assumed co-located with worker 0. Precomputing keeps the hot steal path
// allocation-free.
func buildStealOrders(workers int, t Topology) []stealOrder {
	ords := make([]stealOrder, workers+1)
	for id := 0; id <= workers; id++ {
		ref := id
		if id == workers {
			ref = 0
		}
		var near, mid, far []int32
		for v := 0; v < workers; v++ {
			if v == id {
				continue
			}
			switch {
			case t.flat() || t.Nodes[v] == t.Nodes[ref]:
				near = append(near, int32(v))
			case t.socketOf(v) == t.socketOf(ref):
				mid = append(mid, int32(v))
			default:
				far = append(far, int32(v))
			}
		}
		victims := make([]int32, 0, len(near)+len(mid)+len(far))
		victims = append(victims, near...)
		victims = append(victims, mid...)
		victims = append(victims, far...)
		if t.flat() {
			ords[id] = stealOrder{victims: victims, tiers: []int{len(victims)}}
			continue
		}
		ords[id] = stealOrder{
			victims: victims,
			tiers:   []int{len(near), len(near) + len(mid), len(victims)},
		}
	}
	return ords
}

// validateTopology panics when a non-flat topology does not cover the
// worker count.
func validateTopology(t Topology, workers int) {
	if t.flat() {
		if t.Sockets != nil {
			panic("native: Topology.Sockets set without Topology.Nodes")
		}
		return
	}
	if len(t.Nodes) != workers {
		panic(fmt.Sprintf("native: topology covers %d workers, pool has %d", len(t.Nodes), workers))
	}
	if t.Sockets != nil && len(t.Sockets) != workers {
		panic(fmt.Sprintf("native: topology sockets cover %d workers, pool has %d", len(t.Sockets), workers))
	}
}
