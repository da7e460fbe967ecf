package core

// Every parallel fold in this library takes one of two shapes, the two
// the paper's X::reduce and X::inclusive_scan results come from (Figs.
// 5–6): a chunked reduction and a two-phase chunked prefix. Each shape is
// written once, here. Both derive every phase from one p.Chunks(n)
// decomposition and combine chunk results strictly left to right in chunk
// order, so a result is deterministic for a fixed policy. No grain yields
// an empty chunk, so a chunk is skipped only when the policy's cancel
// token has fired, and a skipped chunk contributes nothing.
//
// The per-chunk work is a type-parameter value rather than a closure: a
// struct's fields travel inside the dispatch closure the helper builds
// anyway, so passing it costs no allocation of its own.

// ChunkFolder is the per-chunk work of ReduceChunks.
type ChunkFolder[R any] interface {
	// Fold combines the elements of the non-empty index range [lo, hi).
	Fold(lo, hi int) R
}

// ChunkScanner is the per-chunk work of ScanChunks.
type ChunkScanner[R any] interface {
	ChunkFolder[R]
	// Reserve receives the grand total after the carry pass, before any
	// output is written: CopyIf checks capacity here, Unique allocates.
	Reserve(total R)
	// Rescan writes the output for [lo, hi) given the combination of
	// everything before lo. hasCarry is false for the first chunk of a
	// scan without a carry-in.
	Rescan(lo, hi int, carry R, hasCarry bool)
}

// chunkResult is one chunk's fold, or the carry into it after the carry
// pass; ok is false when the chunk was skipped (or, as a carry, when
// nothing precedes the chunk).
type chunkResult[R any] struct {
	v  R
	ok bool
}

// ReduceChunks folds every chunk of [0, n) with f in parallel and returns
// op(…op(op(init, r0), r1)…, rk), the chunk results combined onto init in
// chunk order. Callers use it on their parallel path only: their
// sequential loops associate differently.
func ReduceChunks[R any, F ChunkFolder[R]](p Policy, n int, init R, op func(a, b R) R, f F) R {
	chunks := p.Chunks(n)
	parts := make([]chunkResult[R], chunks.Len())
	p.forEachChunk(chunks.Len(), func(ci int) {
		cs := chunks // a local copy keeps the closure's capture off the heap
		c := cs.At(ci)
		parts[ci] = chunkResult[R]{f.Fold(c.Lo, c.Hi), true}
	})
	acc := init
	for _, r := range parts {
		if r.ok {
			acc = op(acc, r.v)
		}
	}
	return acc
}

// ScanChunks is the two-phase parallel prefix over [0, n). Phase 1 folds
// every chunk with s.Fold. A sequential carry pass combines the chunk
// results in chunk order onto carry (ignored unless hasCarry), giving each
// chunk the combination of everything before it, and hands the grand
// total to s.Reserve. Phase 2 rescans every chunk from its carry with
// s.Rescan. The total is returned. The parallel scan therefore does about
// twice the work of a sequential one.
func ScanChunks[R any, S ChunkScanner[R]](p Policy, n int, carry R, hasCarry bool, op func(a, b R) R, s S) R {
	chunks := p.Chunks(n)
	parts := make([]chunkResult[R], chunks.Len())
	p.forEachChunk(chunks.Len(), func(ci int) {
		cs := chunks // a local copy keeps the closure's capture off the heap
		c := cs.At(ci)
		parts[ci] = chunkResult[R]{s.Fold(c.Lo, c.Hi), true}
	})
	for ci, r := range parts {
		parts[ci] = chunkResult[R]{carry, hasCarry}
		if !r.ok {
			continue
		}
		if hasCarry {
			carry = op(carry, r.v)
		} else {
			carry, hasCarry = r.v, true
		}
	}
	s.Reserve(carry)
	p.forEachChunk(chunks.Len(), func(ci int) {
		cs := chunks // a local copy keeps the closure's capture off the heap
		c := cs.At(ci)
		s.Rescan(c.Lo, c.Hi, parts[ci].v, parts[ci].ok)
	})
	return carry
}
