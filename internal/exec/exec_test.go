package exec

import (
	"testing"
	"testing/quick"
)

func TestPartitionCoversRange(t *testing.T) {
	grains := map[string]Grain{
		"static": Static,
		"auto":   Auto,
		"fine":   Fine,
		"zero":   {},
		"min64":  {ChunksPerWorker: 8, MinChunk: 64},
		"max100": {ChunksPerWorker: 1, MaxChunk: 100},
	}
	for name, g := range grains {
		g := g
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 3, 7, 63, 64, 65, 1000, 4096, 1 << 20} {
				for _, w := range []int{1, 2, 3, 16, 128} {
					chunks := g.Partition(n, w)
					if n == 0 {
						if len(chunks) != 0 {
							t.Fatalf("n=0: got %d chunks", len(chunks))
						}
						continue
					}
					if len(chunks) == 0 {
						t.Fatalf("n=%d w=%d: no chunks", n, w)
					}
					lo := 0
					for i, c := range chunks {
						if c.Lo != lo {
							t.Fatalf("n=%d w=%d chunk %d: Lo=%d want %d", n, w, i, c.Lo, lo)
						}
						if c.Empty() {
							t.Fatalf("n=%d w=%d chunk %d empty", n, w, i)
						}
						lo = c.Hi
					}
					if lo != n {
						t.Fatalf("n=%d w=%d: chunks cover [0,%d) want [0,%d)", n, w, lo, n)
					}
				}
			}
		})
	}
}

func TestPartitionBalanced(t *testing.T) {
	for _, n := range []int{5, 17, 100, 1023, 1 << 16} {
		for _, w := range []int{1, 2, 7, 32} {
			chunks := Static.Partition(n, w)
			min, max := n, 0
			for _, c := range chunks {
				if l := c.Len(); l < min {
					min = l
				} else if l > max {
					max = l
				}
			}
			if max != 0 && max-min > 1 {
				t.Fatalf("n=%d w=%d: chunk sizes differ by %d", n, w, max-min)
			}
		}
	}
}

func TestPartitionChunkCountMatches(t *testing.T) {
	g := Grain{ChunksPerWorker: 4, MinChunk: 16, MaxChunk: 4096}
	for _, n := range []int{1, 15, 16, 17, 100000} {
		for _, w := range []int{1, 8, 64} {
			want := len(oracleChunks(g, n, w))
			if got := g.Chunks(n, w).Len(); got != want {
				t.Fatalf("n=%d w=%d: Len()=%d, oracle has %d chunks", n, w, got, want)
			}
			if got := len(g.Partition(n, w)); got != want {
				t.Fatalf("n=%d w=%d: len(Partition)=%d, oracle has %d chunks", n, w, got, want)
			}
		}
	}
}

func TestPartitionRespectsMinChunk(t *testing.T) {
	g := Grain{ChunksPerWorker: 32, MinChunk: 100}
	chunks := g.Partition(350, 8)
	// 350/100 -> at most 4 chunks even though 256 were requested.
	if len(chunks) > 4 {
		t.Fatalf("got %d chunks, want <= 4", len(chunks))
	}
	for _, c := range chunks[:len(chunks)-1] {
		if c.Len() < 87 { // 350/4 rounded down
			t.Fatalf("undersized chunk %v", c)
		}
	}
}

func TestPartitionRespectsMaxChunk(t *testing.T) {
	g := Grain{ChunksPerWorker: 1, MaxChunk: 10}
	chunks := g.Partition(95, 2)
	if len(chunks) < 10 {
		t.Fatalf("got %d chunks, want >= 10", len(chunks))
	}
	for _, c := range chunks {
		if c.Len() > 10 {
			t.Fatalf("chunk %v exceeds MaxChunk", c)
		}
	}
}

// Property: for any n, workers, and grain parameters, the partition is a
// gapless, non-overlapping cover of [0, n) with balanced chunk sizes.
func TestPartitionProperties(t *testing.T) {
	f := func(n uint16, workers uint8, cpw uint8, minChunk uint8, maxChunk uint8) bool {
		g := Grain{
			ChunksPerWorker: int(cpw % 40),
			MinChunk:        int(minChunk % 70),
			MaxChunk:        int(maxChunk % 70),
		}
		nn := int(n)
		w := int(workers%64) + 1
		chunks := g.Partition(nn, w)
		lo := 0
		for _, c := range chunks {
			if c.Lo != lo || c.Empty() {
				return false
			}
			lo = c.Hi
		}
		return lo == nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSerialPool(t *testing.T) {
	var p Serial
	if p.Workers() != 1 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	sum := 0
	p.ForChunks(100, Auto, func(worker, lo, hi int) {
		if worker != 0 {
			t.Fatalf("worker = %d", worker)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 99*100/2 {
		t.Fatalf("sum = %d", sum)
	}
	// Zero-length loop must not invoke the body.
	p.ForChunks(0, Static, func(worker, lo, hi int) { t.Fatal("body called for n=0") })
}

func TestRangeHelpers(t *testing.T) {
	r := Range{3, 7}
	if r.Len() != 4 || r.Empty() {
		t.Fatalf("Range{3,7}: Len=%d Empty=%v", r.Len(), r.Empty())
	}
	if !(Range{5, 5}).Empty() {
		t.Fatal("Range{5,5} should be empty")
	}
	if !(Range{6, 2}).Empty() {
		t.Fatal("inverted range should be empty")
	}
}

func TestGuidedPartition(t *testing.T) {
	chunks := Guided.Partition(1000, 4)
	// Coverage.
	lo := 0
	for i, c := range chunks {
		if c.Lo != lo || c.Empty() {
			t.Fatalf("chunk %d: %+v (expected Lo=%d)", i, c, lo)
		}
		lo = c.Hi
	}
	if lo != 1000 {
		t.Fatalf("cover ends at %d", lo)
	}
	// Monotonically non-increasing sizes: 250, 187, 140, ...
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Len() > chunks[i-1].Len() {
			t.Fatalf("guided chunk %d grew: %d > %d", i, chunks[i].Len(), chunks[i-1].Len())
		}
	}
	if chunks[0].Len() != 250 {
		t.Fatalf("first guided chunk = %d, want 250", chunks[0].Len())
	}
	// More chunks than static, fewer than per-element.
	if len(chunks) <= 4 || len(chunks) >= 1000 {
		t.Fatalf("guided produced %d chunks", len(chunks))
	}
	// MinChunk floor is honored.
	floored := Grain{ChunksPerWorker: -1, MinChunk: 100}.Partition(1000, 4)
	for i, c := range floored[:len(floored)-1] {
		if c.Len() < 100 {
			t.Fatalf("floored chunk %d below MinChunk: %d", i, c.Len())
		}
	}
	if got := Guided.Chunks(1000, 4).Len(); got != len(chunks) {
		t.Fatalf("guided Len() %d != %d", got, len(chunks))
	}
	if Guided.Partition(0, 4) != nil {
		t.Fatal("guided n=0 should be nil")
	}
}
