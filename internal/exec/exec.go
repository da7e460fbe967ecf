// Package exec defines the executor abstraction shared by the native
// goroutine pools (package native) and the performance simulator
// (package simexec).
//
// The central idea of pSTL-Bench is that the *same* algorithm exhibits very
// different scalability depending on how its iteration space is partitioned
// and scheduled by the backend runtime (TBB work stealing, OpenMP static
// fork-join, HPX futures, ...).  This package therefore separates
//
//   - the partitioning policy (Grain): how an iteration space [0,n) is cut
//     into chunks, and
//   - the execution substrate (Pool): what runs those chunks.
//
// Grain.Chunks is the one chunk decomposition both planes read: the native
// pools dispatch its chunks by index, the skeletons turn its Partition into
// the discrete-event simulator's tasks, and both the stealing pool and the
// simulator split the chunk indices into per-worker home bands with
// Static.Chunks. The schedule that is simulated is therefore the schedule
// the library actually runs.
package exec

// Range is a half-open interval [Lo, Hi) of an iteration space.
type Range struct {
	Lo, Hi int
}

// Len returns the number of iterations in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Empty reports whether the range contains no iterations.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Grain describes a chunking policy for a parallel loop. The zero value
// means "static": exactly one chunk per worker.
type Grain struct {
	// ChunksPerWorker is the target number of chunks per worker.
	// 0 or 1 yields a static schedule (one chunk per worker); larger
	// values produce finer chunks that load-balance better at the cost
	// of per-task overhead. TBB's auto_partitioner is approximated with
	// 4, HPX's fine-grained task decomposition with 32.
	ChunksPerWorker int

	// MinChunk is the minimum chunk size in iterations; finer grains are
	// coalesced. 0 means 1.
	MinChunk int

	// MaxChunk, if positive, caps the chunk size in iterations,
	// producing more chunks than ChunksPerWorker would alone.
	MaxChunk int
}

// Static is the OpenMP-style static schedule: one contiguous chunk per
// worker.
var Static = Grain{ChunksPerWorker: 1}

// Auto approximates TBB's auto_partitioner: a few chunks per worker so the
// scheduler can rebalance.
var Auto = Grain{ChunksPerWorker: 4}

// Fine is a fine-grained decomposition in the style of HPX task futures.
var Fine = Grain{ChunksPerWorker: 32}

// Guided marks the OpenMP schedule(guided) policy: geometrically
// decreasing chunk sizes — large chunks first for low overhead, small
// chunks last for load balance.
var Guided = Grain{ChunksPerWorker: guidedMarker}

// guidedMarker selects the guided decomposition in Grain.Chunks.
const guidedMarker = -1

// Chunks is the chunk decomposition a grain prescribes for [0, n) on a
// worker count: Len() contiguous, non-overlapping, non-empty chunks that
// cover [0, n) in index order. It is the one place the split arithmetic
// lives; the native pools, core's multi-phase algorithms, the skeletons
// (through Partition) and the simulator's band model all read it.
//
// A Chunks is a small value that never allocates. Hot paths call At
// through a pointer (a struct field or a local) so the value is not copied
// for every chunk.
type Chunks struct {
	n, count int
	// Linear grains: the first rem chunks hold base+1 iterations, the
	// rest base.
	base, rem int
	// Guided grains (workers > 0): each chunk is remaining/workers
	// iterations, never below minChunk.
	workers, minChunk int
}

// Chunks returns the decomposition of [0, n) for the given worker count.
// The linear grains cut Len() chunks whose sizes differ by at most one
// iteration. Guided chunks shrink geometrically while remaining/workers is
// at least MinChunk (the head), then run at exactly MinChunk with the last
// one capped at n (the tail).
func (g Grain) Chunks(n, workers int) Chunks {
	if n <= 0 {
		return Chunks{}
	}
	workers = max(workers, 1)
	minChunk := max(g.MinChunk, 1)
	if g.ChunksPerWorker == guidedMarker {
		// The integer floors make the head's length data-dependent, so it
		// is replayed exactly (O(workers * log n) steps); the tail's
		// length is a division.
		c := Chunks{n: n, workers: workers, minChunk: minChunk}
		for lo := 0; ; c.count++ {
			size := (n - lo) / workers
			if size < minChunk {
				c.count += (n - lo + minChunk - 1) / minChunk
				return c
			}
			lo += size
		}
	}
	// Never more than n chunks: ceil(n/MinChunk) and ceil(n/MaxChunk) are
	// both at most n.
	chunks := min(workers*max(g.ChunksPerWorker, 1), (n+minChunk-1)/minChunk)
	if g.MaxChunk > 0 {
		chunks = max(chunks, (n+g.MaxChunk-1)/g.MaxChunk)
	}
	return Chunks{n: n, count: chunks, base: n / chunks, rem: n % chunks}
}

// Len returns the number of chunks; 0 when n <= 0.
func (c Chunks) Len() int { return c.count }

// At returns chunk i, or the zero Range when i is outside [0, Len()). It
// is O(1) for the linear grains; for Guided it replays the geometric head
// up to chunk i, and a tail index resolves by a multiplication.
func (c *Chunks) At(i int) Range {
	if uint(i) >= uint(c.count) { // also rejects i < 0
		return Range{}
	}
	if c.workers > 0 {
		return c.guidedAt(i)
	}
	lo := i*c.base + min(i, c.rem)
	if i < c.rem {
		return Range{Lo: lo, Hi: lo + c.base + 1}
	}
	return Range{Lo: lo, Hi: lo + c.base}
}

func (c *Chunks) guidedAt(i int) Range {
	lo := 0
	for k := 0; ; k++ {
		size := (c.n - lo) / c.workers
		if size < c.minChunk {
			lo += (i - k) * c.minChunk
			return Range{Lo: lo, Hi: min(lo+c.minChunk, c.n)}
		}
		if k == i {
			return Range{Lo: lo, Hi: lo + size}
		}
		lo += size
	}
}

// Partition materializes the decomposition as a slice, for consumers that
// keep the whole chunk list (the simulator's skeletons); nil when n <= 0.
func (g Grain) Partition(n, workers int) []Range {
	cs := g.Chunks(n, workers)
	if cs.Len() == 0 {
		return nil
	}
	out := make([]Range, cs.Len())
	for i := range out {
		out[i] = cs.At(i)
	}
	return out
}

// Pool is an execution substrate for parallel loops.
//
// Implementations must support concurrent independent loops from multiple
// goroutines, as well as nested parallelism (a loop body may itself call
// ForChunks). Panics raised by loop bodies are recovered on the worker and
// re-raised on the calling goroutine once all sibling chunks have finished.
type Pool interface {
	// Workers returns the number of workers the pool schedules onto.
	// Serial pools return 1.
	Workers() int

	// ForChunks partitions [0, n) according to g and invokes
	// body(worker, lo, hi) for every chunk, possibly concurrently.
	// worker identifies the executing worker in [0, Workers()]; the
	// value Workers() is used when the calling goroutine itself helps
	// execute chunks, so per-worker state must be sized Workers()+1.
	// ForChunks returns after every chunk has completed.
	ForChunks(n int, g Grain, body func(worker, lo, hi int))
}

// Serial is the trivial pool: everything runs inline on the calling
// goroutine. It is the reference implementation against which the parallel
// pools are tested.
type Serial struct{}

// Workers returns 1.
func (Serial) Workers() int { return 1 }

// ForChunks runs the loop body inline as a single chunk.
func (Serial) ForChunks(n int, _ Grain, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	body(0, 0, n)
}
