// Package core implements the parallel algorithms of the C++17 standard
// library (the subset supported by pSTL-Bench, Table 1 of the paper) in Go,
// generically over the exec.Pool execution substrate.
//
// Every algorithm takes a Policy as its first argument, mirroring the
// std::execution policy parameter of the C++ parallel STL. The policy
// bundles the execution pool with the partitioning grain — the paper shows
// that backends differ substantially in both (TBB auto-partitions into a
// few chunks per worker, HPX uses a fine task decomposition). A policy runs
// every input of at least two elements in parallel when its pool has at
// least two workers; the size below which a backend's runtime falls back to
// sequential code (GNU's ~2^10 elements) is modeled by the simulator's
// backend traits, not by the library.
//
// Algorithms with early-exit semantics (Find, AnyOf, Mismatch, ...) use a
// shared atomic bound so that workers abandon chunks that can no longer
// contain the answer, mirroring the cancellation behaviour whose cost the
// paper measures for X::find.
package core

import (
	"sync/atomic"
	"time"

	"pstlbench/internal/exec"
)

// GrainSource proposes a chunking policy per loop invocation, given the
// loop's element count and the pool's worker count. Plugging one into a
// Policy (WithGrainSource) overrides the static Grain for every parallel
// loop the policy runs — the hook the adaptive tuner (internal/tune) uses
// to own grain selection without touching algorithm code.
type GrainSource interface {
	Grain(n, workers int) exec.Grain
}

// Policy selects how an algorithm executes, playing the role of
// std::execution::seq / par plus the backend-specific tuning the paper
// studies.
//
// The zero value is a valid sequential policy.
type Policy struct {
	// Pool is the execution substrate. nil means sequential.
	Pool exec.Pool

	// Grain is the chunking policy for parallel loops.
	Grain exec.Grain

	// Grains, when non-nil, overrides Grain: every parallel loop asks it
	// for the grain to use at its own (n, workers) point. Multi-phase
	// algorithms ask once per decomposition, so all phases of one call
	// share a consistent chunk set.
	Grains GrainSource

	// Cancel, when non-nil, is checked at chunk granularity by every
	// parallel loop the policy runs: once it fires, remaining chunks are
	// skipped and the algorithm returns early with an incomplete result.
	// Callers that cancel must discard the result — Canceled() is the
	// source of truth, mirroring how an interrupted std::find caller must
	// not dereference the returned iterator. Sequential fallbacks are not
	// cancellable; the serving layer always runs cancellable jobs parallel.
	Cancel *exec.Cancel

	// FirstChunkNS, when non-nil, receives the wall-clock UnixNano of the
	// first chunk the policy dispatches (CAS from 0, so only the first
	// writer wins). The serving layer points this at a job span's
	// first-chunk slot to measure scheduler dispatch latency. The check is
	// per dispatch, not per chunk: a nil field costs one pointer test per
	// parallel loop.
	FirstChunkNS *int64
}

// Seq returns the sequential execution policy.
func Seq() Policy { return Policy{} }

// Par returns a parallel policy over the given pool with TBB-like
// auto-partitioning.
func Par(pool exec.Pool) Policy {
	return Policy{Pool: pool, Grain: exec.Auto}
}

// WithGrain returns a copy of the policy using the given grain.
func (p Policy) WithGrain(g exec.Grain) Policy {
	p.Grain = g
	return p
}

// WithGrainSource returns a copy of the policy taking its grain from src
// (nil restores the static Grain).
func (p Policy) WithGrainSource(src GrainSource) Policy {
	p.Grains = src
	return p
}

// WithCancel returns a copy of the policy whose parallel loops check the
// given cancellation token before every chunk (nil removes the token).
func (p Policy) WithCancel(c *exec.Cancel) Policy {
	p.Cancel = c
	return p
}

// Canceled reports whether the policy's cancellation token has fired; a
// policy without a token is never canceled. Algorithms run under a token
// produce incomplete results once this returns true.
func (p Policy) Canceled() bool { return p.Cancel.Canceled() }

// ShouldParallelize reports whether an input of n elements takes the
// parallel path under this policy — the same gate every core algorithm
// applies before dispatching. Exported so layered executors (the fused
// pipelines of internal/pipeline) make the identical seq-vs-par decision
// and stay element-wise equivalent to the staged composition.
func (p Policy) ShouldParallelize(n int) bool { return p.parallel(n) }

// parallel reports whether an input of n elements should take the parallel
// path under this policy: a pool of at least two workers and at least two
// elements.
func (p Policy) parallel(n int) bool {
	return p.Pool != nil && p.Pool.Workers() >= 2 && n >= 2
}

// pool returns the execution pool, substituting the serial pool when none
// is configured.
func (p Policy) pool() exec.Pool {
	if p.Pool == nil {
		return exec.Serial{}
	}
	return p.Pool
}

// workers returns the worker count of the underlying pool.
func (p Policy) workers() int { return p.pool().Workers() }

// grain returns the effective chunking policy for a parallel loop over n
// elements: the GrainSource's proposal when one is plugged in, the static
// Grain otherwise.
func (p Policy) grain(n int) exec.Grain {
	if p.Grains != nil {
		return p.Grains.Grain(n, p.workers())
	}
	return p.Grain
}

// Chunks returns the chunk decomposition of [0, n) under this policy.
// All multi-phase algorithms (scan, stable partition, copy-if) derive every
// phase from the same decomposition so per-chunk intermediate results line
// up across phases. Exported so that tests can restate a call's
// decomposition; layered executors dispatch through ParallelFor,
// ReduceChunks and ScanChunks.
func (p Policy) Chunks(n int) exec.Chunks {
	return p.grain(n).Chunks(n, p.workers())
}

// dispatch runs one parallel loop over [0, n) with grain g on the policy's
// pool, threading the cancellation token through pools that support it
// (exec.CancelPool: chunk-granular checks on the zero-allocation dispatch
// path). Pools without native support get the token enforced by a body
// wrapper — same observable semantics, one extra closure per call.
func (p Policy) dispatch(n int, g exec.Grain, body func(worker, lo, hi int)) {
	pl := p.pool()
	if fc := p.FirstChunkNS; fc != nil && atomic.LoadInt64(fc) == 0 {
		inner := body
		body = func(worker, lo, hi int) {
			if atomic.LoadInt64(fc) == 0 {
				atomic.CompareAndSwapInt64(fc, 0, time.Now().UnixNano())
			}
			inner(worker, lo, hi)
		}
	}
	if p.Cancel == nil {
		pl.ForChunks(n, g, body)
		return
	}
	if cp, ok := pl.(exec.CancelPool); ok {
		cp.ForChunksCancel(n, g, p.Cancel, body)
		return
	}
	c := p.Cancel
	pl.ForChunks(n, g, func(worker, lo, hi int) {
		if !c.Canceled() {
			body(worker, lo, hi)
		}
	})
}

// ParallelFor runs body over [0, n) under the policy's effective grain — the
// single-phase parallel loop every algorithm without an explicit chunk
// decomposition uses.
func (p Policy) ParallelFor(n int, body func(worker, lo, hi int)) {
	p.dispatch(n, p.grain(n), body)
}

// forEachChunk runs body for every chunk index in [0, chunks) on the
// policy's pool. It is the building block for the multi-phase algorithms,
// which need an explicit chunk decomposition rather than ParallelFor's
// implicit partition.
func (p Policy) forEachChunk(chunks int, body func(ci int)) {
	p.dispatch(chunks, exec.Grain{ChunksPerWorker: 1, MaxChunk: 1}, func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			body(ci)
		}
	})
}
