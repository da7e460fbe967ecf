package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pstlbench/internal/native"
)

func TestSumMatchesClosedForm(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		for _, n := range testSizes {
			s := iota(n)
			got := Sum(p, s, 0)
			want := float64(n) * float64(n+1) / 2
			if got != want {
				t.Fatalf("n=%d: Sum = %v, want %v", n, got, want)
			}
		}
	})
}

func TestReduceWithInitAndOp(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := make([]int, 8192)
		for i := range s {
			s[i] = 1
		}
		got := Reduce(p, s, 100, func(a, b int) int { return a + b })
		if got != 100+8192 {
			t.Fatalf("Reduce = %d", got)
		}
		// Max as the reduction operator.
		rng := rand.New(rand.NewSource(3))
		r := randomInts(rng, 5000, 1<<20)
		gotMax := Reduce(p, r, -1, func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
		wantMax := -1
		for _, v := range r {
			if v > wantMax {
				wantMax = v
			}
		}
		if gotMax != wantMax {
			t.Fatalf("max-reduce = %d, want %d", gotMax, wantMax)
		}
	})
}

func TestTransformReduce(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := iota(4096)
		// Sum of squares.
		got := TransformReduce(p, s, 0.0,
			func(a, b float64) float64 { return a + b },
			func(v float64) float64 { return v * v })
		n := float64(len(s))
		want := n * (n + 1) * (2*n + 1) / 6
		if got != want {
			t.Fatalf("sum of squares = %v, want %v", got, want)
		}
	})
}

func TestTransformReduceBinaryInnerProduct(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		a := iota(3000)
		b := make([]float64, len(a))
		Fill(Seq(), b, 2)
		got := TransformReduceBinary(p, a, b, 0.0,
			func(x, y float64) float64 { return x + y },
			func(x, y float64) float64 { return x * y })
		n := float64(len(a))
		want := n * (n + 1) // 2 * sum(1..n)
		if got != want {
			t.Fatalf("inner product = %v, want %v", got, want)
		}
	})
}

func TestTransformReduceBinaryLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TransformReduceBinary(Seq(), []int{1}, []int{1, 2}, 0,
		func(a, b int) int { return a + b }, func(a, b int) int { return a * b })
}

func TestReduceEmpty(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		if got := Sum(p, []int{}, 5); got != 5 {
			t.Fatalf("empty Sum = %d, want init", got)
		}
	})
}

func TestInclusiveScanMatchesSequential(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range testSizes {
			src := randomInts(rng, n, 100)
			want := make([]int, n)
			acc := 0
			for i, v := range src {
				acc += v
				want[i] = acc
			}
			dst := make([]int, n)
			InclusiveSum(p, dst, src)
			if !equalSlices(dst, want) {
				t.Fatalf("n=%d: inclusive scan mismatch", n)
			}
		}
	})
}

func TestInclusiveScanInPlace(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := iota(20000)
		InclusiveSum(p, s, s)
		for i := 0; i < len(s); i += 997 {
			k := float64(i + 1)
			if want := k * (k + 1) / 2; s[i] != want {
				t.Fatalf("s[%d] = %v, want %v", i, s[i], want)
			}
		}
	})
}

func TestInclusiveScanNonCommutativeOp(t *testing.T) {
	// String concatenation is associative but not commutative: any
	// reordering bug in the two-phase scan shows up immediately.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		src := make([]string, 500)
		for i := range src {
			src[i] = string(rune('a' + i%26))
		}
		dst := make([]string, len(src))
		InclusiveScan(p, dst, src, func(a, b string) string { return a + b })
		want := ""
		for i, v := range src {
			want += v
			if dst[i] != want {
				t.Fatalf("prefix %d mismatch", i)
			}
		}
	})
}

func TestExclusiveScan(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(13))
		for _, n := range testSizes {
			src := randomInts(rng, n, 100)
			want := make([]int, n)
			acc := 10
			for i, v := range src {
				want[i] = acc
				acc += v
			}
			dst := make([]int, n)
			ExclusiveScan(p, dst, src, 10, func(a, b int) int { return a + b })
			if !equalSlices(dst, want) {
				t.Fatalf("n=%d: exclusive scan mismatch", n)
			}
		}
	})
}

func TestExclusiveScanInPlace(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := make([]int, 10000)
		Fill(Seq(), s, 1)
		ExclusiveScan(p, s, s, 0, func(a, b int) int { return a + b })
		for i, v := range s {
			if v != i {
				t.Fatalf("s[%d] = %d", i, v)
			}
		}
	})
}

func TestTransformScans(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		src := iota(5000)
		dst := make([]float64, len(src))
		TransformInclusiveScan(p, dst, src,
			func(a, b float64) float64 { return a + b },
			func(v float64) float64 { return 2 * v })
		n := float64(1000)
		if want := n * (n + 1); dst[999] != want {
			t.Fatalf("transform inclusive scan: dst[999] = %v, want %v", dst[999], want)
		}
		TransformExclusiveScan(p, dst, src, 0.0,
			func(a, b float64) float64 { return a + b },
			func(v float64) float64 { return 2 * v })
		if want := n * (n - 1); dst[999] != float64(999)*1000 {
			t.Fatalf("transform exclusive scan: dst[999] = %v, want %v", dst[999], want)
		}
	})
}

func TestScanLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"inclusive": func() { InclusiveSum(Seq(), make([]int, 3), make([]int, 4)) },
		"exclusive": func() { ExclusiveScan(Seq(), make([]int, 5), make([]int, 4), 0, func(a, b int) int { return a + b }) },
	} {
		name, fn := name, fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAdjacentDifference(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		src := make([]int, 30000)
		for i := range src {
			src[i] = i * i
		}
		dst := make([]int, len(src))
		AdjacentDifference(p, dst, src, func(cur, prev int) int { return cur - prev })
		if dst[0] != 0 {
			t.Fatalf("dst[0] = %d", dst[0])
		}
		for i := 1; i < len(dst); i += 631 {
			if want := 2*i - 1; dst[i] != want {
				t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want)
			}
		}
	})
}

func TestAdjacentDifferenceInPlaceAliased(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{1, 4, 9, 16, 25}
		AdjacentDifference(p, s, s, func(cur, prev int) int { return cur - prev })
		if !equalSlices(s, []int{1, 3, 5, 7, 9}) {
			t.Fatalf("aliased adjacent difference = %v", s)
		}
	})
}

func TestScanReconstructsAdjacentDifference(t *testing.T) {
	// InclusiveScan(AdjacentDifference(x)) == x: a classic round-trip
	// identity linking the two algorithms.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(17))
		src := randomInts(rng, 12345, 1000)
		diff := make([]int, len(src))
		AdjacentDifference(p, diff, src, func(cur, prev int) int { return cur - prev })
		back := make([]int, len(src))
		InclusiveSum(p, back, diff)
		if !equalSlices(back, src) {
			t.Fatal("scan(adjacent_difference(x)) != x")
		}
	})
}

// BenchmarkElementKernels times the paper's element loops — Reduce with a
// caller's op, Sum, InclusiveScan and a Find that scans the whole input —
// on a 2-worker pool at 2^10 (dispatch-bound) and 2^22 (beyond the
// last-level cache, bandwidth-bound), reporting the bytes each call reads
// and writes as GB/s.
func BenchmarkElementKernels(b *testing.B) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	p := Par(pool)
	add := func(x, y float64) float64 { return x + y }
	for _, n := range []int{1 << 10, 1 << 22} {
		src := iota(n)
		dst := make([]float64, n)
		var sink float64
		for _, k := range []struct {
			name  string
			bytes int
			call  func()
		}{
			{"reduce", 8, func() { sink = Reduce(p, src, 0, add) }},
			{"sum", 8, func() { sink = Sum(p, src, 0) }},
			{"inclusive_scan", 16, func() { InclusiveScan(p, dst, src, add) }},
			{"find", 8, func() { sink = float64(Find(p, src, float64(n))) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.call()
				}
				b.ReportMetric(float64(k.bytes*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
		_ = sink
	}
}
