package exec

import (
	"math/rand"
	"testing"
)

// Edge cases of the chunk arithmetic at the boundaries the adaptive tuner
// exercises: empty iteration spaces, more workers than elements, and
// single-element chunks.

func TestChunkArithmeticEmptyRange(t *testing.T) {
	for _, g := range chunkGrains {
		for _, w := range []int{1, 4, 128} {
			cs := g.Chunks(0, w)
			if got := cs.Len(); got != 0 {
				t.Fatalf("grain %+v w=%d: Chunks(0).Len()=%d, want 0", g, w, got)
			}
			for _, i := range []int{0, 1, 5} {
				if r := cs.At(i); r != (Range{}) {
					t.Fatalf("grain %+v w=%d: Chunks(0).At(%d)=%+v, want zero", g, w, i, r)
				}
			}
			if p := g.Partition(0, w); len(p) != 0 {
				t.Fatalf("grain %+v w=%d: Partition(0) has %d chunks", g, w, len(p))
			}
		}
	}
}

func TestChunkArithmeticMoreWorkersThanElements(t *testing.T) {
	for _, g := range chunkGrains {
		for _, n := range []int{1, 2, 3, 7} {
			for _, w := range []int{8, 64, 1000} {
				chunks := g.Chunks(n, w).Len()
				if chunks < 1 || chunks > n {
					t.Fatalf("grain %+v n=%d w=%d: Len()=%d outside [1, n]",
						g, n, w, chunks)
				}
				assertTiles(t, g, n, w)
			}
		}
	}
}

func TestChunkArithmeticMaxChunkOne(t *testing.T) {
	g := Grain{MaxChunk: 1}
	for _, n := range []int{1, 5, 64, 1000} {
		for _, w := range []int{1, 3, 16} {
			cs := g.Chunks(n, w)
			if got := cs.Len(); got != n {
				t.Fatalf("MaxChunk=1 n=%d w=%d: Len()=%d, want n", n, w, got)
			}
			for i := 0; i < n; i++ {
				if r := cs.At(i); r.Lo != i || r.Hi != i+1 {
					t.Fatalf("MaxChunk=1 n=%d w=%d: At(%d)=%+v, want [%d,%d)",
						n, w, i, r, i, i+1)
				}
			}
		}
	}
}

// TestAdaptiveGrainTilesRandomized is the property test for the grains the
// adaptive tuner proposes (MinChunk == MaxChunk == c): the decomposition
// must tile [0, n) exactly once for any (n, workers, c), never overlapping
// and never dropping iterations, and match the oracle.
func TestAdaptiveGrainTilesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(100000)
		w := 1 + rng.Intn(256)
		c := 1 + rng.Intn(n+10)
		g := Grain{MinChunk: c, MaxChunk: c}
		if n == 0 {
			if got := g.Chunks(0, w).Len(); got != 0 {
				t.Fatalf("c=%d w=%d: Chunks(0).Len()=%d", c, w, got)
			}
			continue
		}
		chunks := g.Chunks(n, w).Len()
		wantChunks := (n + c - 1) / c
		if chunks != wantChunks {
			t.Fatalf("n=%d w=%d c=%d: Len()=%d, want ceil(n/c)=%d",
				n, w, c, chunks, wantChunks)
		}
		assertTiles(t, g, n, w)
	}
}

// FuzzChunkAtTiles fuzzes Grain.Chunks against the oracle over arbitrary
// grain parameters, including the guided policy. It keeps the no-empty-chunk
// check: ReduceChunks and ScanChunks in core rely on that contract.
func FuzzChunkAtTiles(f *testing.F) {
	f.Add(100, 4, 0, 0, 0)
	f.Add(65536, 32, 0, 2048, 2048) // adaptive-style uniform chunk
	f.Add(1000, 8, 4, 1, 0)         // auto
	f.Add(17, 64, -1, 0, 0)         // guided, workers > n
	f.Add(0, 3, 1, 0, 1)
	f.Fuzz(func(t *testing.T, n, workers, cpw, minChunk, maxChunk int) {
		if n < 0 || n > 1<<20 || workers < -4 || workers > 1024 {
			t.Skip()
		}
		if cpw < -1 || cpw > 1024 || minChunk < -4 || minChunk > 1<<20 || maxChunk < -4 || maxChunk > 1<<20 {
			t.Skip()
		}
		g := Grain{ChunksPerWorker: cpw, MinChunk: minChunk, MaxChunk: maxChunk}
		chunks := g.Chunks(n, workers).Len()
		if n <= 0 {
			if chunks != 0 {
				t.Fatalf("grain %+v n=%d w=%d: Len()=%d, want 0", g, n, workers, chunks)
			}
			return
		}
		if chunks < 1 || chunks > n {
			t.Fatalf("grain %+v n=%d w=%d: Len()=%d outside [1, n]", g, n, workers, chunks)
		}
		assertTiles(t, g, n, workers)
	})
}

// assertTiles checks that the grain's indexed chunks cover [0, n)
// contiguously, in order, with no empty chunk, that each equals the
// oracle's, and that out-of-range indices return the zero Range.
func assertTiles(t *testing.T, g Grain, n, workers int) {
	t.Helper()
	cs := g.Chunks(n, workers)
	want := oracleChunks(g, n, workers)
	if cs.Len() != len(want) {
		t.Fatalf("grain %+v n=%d w=%d: Len()=%d, oracle has %d chunks",
			g, n, workers, cs.Len(), len(want))
	}
	pos := 0
	for i := 0; i < cs.Len(); i++ {
		r := cs.At(i)
		if r != want[i] {
			t.Fatalf("grain %+v n=%d w=%d: At(%d)=%+v, oracle %+v",
				g, n, workers, i, r, want[i])
		}
		if r.Lo != pos {
			t.Fatalf("grain %+v n=%d w=%d: chunk %d starts at %d, want %d",
				g, n, workers, i, r.Lo, pos)
		}
		if r.Hi <= r.Lo {
			t.Fatalf("grain %+v n=%d w=%d: chunk %d empty [%d,%d)",
				g, n, workers, i, r.Lo, r.Hi)
		}
		pos = r.Hi
	}
	if pos != n {
		t.Fatalf("grain %+v n=%d w=%d: tiling covers [0,%d), want [0,%d)",
			g, n, workers, pos, n)
	}
	for _, i := range []int{-1, cs.Len(), cs.Len() + 3} {
		if r := cs.At(i); r != (Range{}) {
			t.Fatalf("grain %+v n=%d w=%d: At(%d)=%+v, want zero",
				g, n, workers, i, r)
		}
	}
}
