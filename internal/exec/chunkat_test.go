package exec

import (
	"testing"
)

var chunkGrains = []Grain{
	Static,
	Auto,
	Fine,
	Guided,
	{ChunksPerWorker: 4, MinChunk: 100},
	{ChunksPerWorker: 2, MaxChunk: 33},
	{ChunksPerWorker: guidedMarker, MinChunk: 64},
}

// oracleChunks restates the decomposition as plain loops, independently of
// Grain.Chunks: the linear grains clamp workers*ChunksPerWorker to at most
// ceil(n/MinChunk) and n and at least ceil(n/MaxChunk), then give the first
// n%chunks chunks one extra iteration; Guided walks the recurrence
// size = remaining/workers, floored at MinChunk and capped at the end.
// Chunks is compared with it, never with Partition, which loops over
// Chunks.
func oracleChunks(g Grain, n, workers int) []Range {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	minChunk := g.MinChunk
	if minChunk < 1 {
		minChunk = 1
	}
	var out []Range
	if g.ChunksPerWorker == guidedMarker {
		for lo := 0; lo < n; {
			size := (n - lo) / workers
			if size < minChunk {
				size = minChunk
			}
			if size > n-lo {
				size = n - lo
			}
			out = append(out, Range{Lo: lo, Hi: lo + size})
			lo += size
		}
		return out
	}
	cpw := g.ChunksPerWorker
	if cpw < 1 {
		cpw = 1
	}
	chunks := workers * cpw
	if byMin := (n + minChunk - 1) / minChunk; chunks > byMin {
		chunks = byMin
	}
	if g.MaxChunk > 0 {
		if byMax := (n + g.MaxChunk - 1) / g.MaxChunk; chunks < byMax {
			chunks = byMax
		}
	}
	if chunks > n {
		chunks = n
	}
	lo := 0
	for i := 0; i < chunks; i++ {
		hi := lo + n/chunks
		if i < n%chunks {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// TestChunkAtMatchesPartition pins the decomposition to the oracle: Len and
// every At must equal oracleChunks, and Partition must materialize exactly
// the same list, for every grain, size and worker count.
func TestChunkAtMatchesPartition(t *testing.T) {
	for _, g := range chunkGrains {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 65536} {
			for _, w := range []int{1, 2, 3, 8, 17, 128} {
				want := oracleChunks(g, n, w)
				cs := g.Chunks(n, w)
				if cs.Len() != len(want) {
					t.Fatalf("grain %+v n=%d w=%d: Len()=%d, oracle has %d chunks",
						g, n, w, cs.Len(), len(want))
				}
				for i, r := range want {
					if got := cs.At(i); got != r {
						t.Fatalf("grain %+v n=%d w=%d: At(%d)=%+v, oracle %+v",
							g, n, w, i, got, r)
					}
				}
				got := g.Partition(n, w)
				if len(got) != len(want) {
					t.Fatalf("grain %+v n=%d w=%d: Partition has %d chunks, oracle %d",
						g, n, w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("grain %+v n=%d w=%d: Partition[%d]=%+v, oracle %+v",
							g, n, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGuidedChunkCountNoAlloc pins that building a decomposition and
// reading its chunks never materializes the partition, guided included.
func TestGuidedChunkCountNoAlloc(t *testing.T) {
	g := Guided
	allocs := testing.AllocsPerRun(100, func() {
		cs := g.Chunks(1<<20, 64)
		if cs.Len() == 0 || cs.At(cs.Len()-1).Hi != 1<<20 {
			t.Fatal("bad guided decomposition")
		}
	})
	if allocs != 0 {
		t.Fatalf("guided Chunks allocates %v per call, want 0", allocs)
	}
}

func TestChunkAtOutOfRange(t *testing.T) {
	auto := Auto.Chunks(100, 4)
	if r := auto.At(999); !r.Empty() {
		t.Fatalf("out-of-range At = %+v, want empty", r)
	}
	guided := Guided.Chunks(100, 4)
	if r := guided.At(999); !r.Empty() {
		t.Fatalf("guided out-of-range At = %+v, want empty", r)
	}
}
