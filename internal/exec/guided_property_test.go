package exec

import (
	"math/rand"
	"testing"
)

// TestGuidedAgreementRandomized is a randomized property test: for guided
// grains across random n/workers/MinChunk — biased so the fixed-size tail
// regime is always exercised — Chunks must match the oracle chunk for
// chunk, cover [0, n) exactly, and respect MinChunk except on the final
// capped chunk.
func TestGuidedAgreementRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(1<<14)
		workers := 1 + rng.Intn(64)
		minChunk := 1 + rng.Intn(128)
		if trial%3 == 0 {
			// Force a long tail: a minChunk big relative to n/workers makes
			// the geometric head short or empty.
			minChunk = 1 + n/(1+rng.Intn(8))
		}
		g := Grain{ChunksPerWorker: guidedMarker, MinChunk: minChunk}

		want := oracleChunks(g, n, workers)
		cs := g.Chunks(n, workers)
		count := cs.Len()
		if count != len(want) {
			t.Fatalf("n=%d w=%d min=%d: Len()=%d, oracle has %d chunks",
				n, workers, minChunk, count, len(want))
		}

		lo := 0
		for i, r := range want {
			if r.Lo != lo || r.Empty() || r.Hi > n {
				t.Fatalf("n=%d w=%d min=%d: oracle[%d]=%+v does not tile at %d",
					n, workers, minChunk, i, r, lo)
			}
			if r.Len() < minChunk && r.Hi != n {
				t.Fatalf("n=%d w=%d min=%d: oracle[%d]=%+v below MinChunk before the end",
					n, workers, minChunk, i, r)
			}
			if got := cs.At(i); got != r {
				t.Fatalf("n=%d w=%d min=%d: At(%d)=%+v, want %+v",
					n, workers, minChunk, i, got, r)
			}
			lo = r.Hi
		}
		if lo != n {
			t.Fatalf("n=%d w=%d min=%d: partition covers [0,%d), want [0,%d)",
				n, workers, minChunk, lo, n)
		}

		// Out-of-range indices return the zero Range, same as the linear
		// grains.
		for _, i := range []int{-1, count, count + 1, count + rng.Intn(1000)} {
			if r := cs.At(i); !r.Empty() {
				t.Fatalf("n=%d w=%d min=%d: At(%d)=%+v, want empty",
					n, workers, minChunk, i, r)
			}
		}
	}
}

// TestGuidedChunkAtOutOfRangeBounded pins that an out-of-range lookup
// resolves against the count instead of walking all O(n/minChunk) chunks:
// with n=1<<20 and MinChunk=1 a walk would take ~64k steps per call.
func TestGuidedChunkAtOutOfRangeBounded(t *testing.T) {
	const n = 1 << 20
	cs := Guided.Chunks(n, 4)
	count := cs.Len()
	// Out-of-range far beyond the count, repeated enough that an O(n)
	// walk would be visibly slow under -race; mostly this documents the
	// contract, the agreement test above checks correctness.
	for i := 0; i < 1000; i++ {
		if r := cs.At(count + i); !r.Empty() {
			t.Fatalf("At(%d) = %+v, want empty", count+i, r)
		}
	}
	if r := cs.At(-1); !r.Empty() {
		t.Fatalf("At(-1) = %+v, want empty", r)
	}
}
