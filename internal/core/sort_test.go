package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

func shuffledPermutation(rng *rand.Rand, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	rng.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func TestSortPaperScenario(t *testing.T) {
	// The paper's X::sort: v is a random permutation of [1..n].
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(23))
		for _, n := range []int{0, 1, 2, 100, 4096, 4097, 50000} {
			s := shuffledPermutation(rng, n)
			Sort(p, s)
			for i, v := range s {
				if v != i+1 {
					t.Fatalf("n=%d: s[%d] = %d", n, i, v)
				}
			}
		}
	})
}

func TestSortFuncWithDuplicates(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(29))
		s := randomInts(rng, 30000, 100)
		want := slices.Clone(s)
		slices.Sort(want)
		SortFunc(p, s, intLess)
		if !equalSlices(s, want) {
			t.Fatal("SortFunc result differs from slices.Sort")
		}
	})
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		n := 20000
		asc := make([]int, n)
		for i := range asc {
			asc[i] = i
		}
		desc := make([]int, n)
		for i := range desc {
			desc[i] = n - i
		}
		Sort(p, asc)
		Sort(p, desc)
		if !IsSorted(Seq(), asc, intLess) || !IsSorted(Seq(), desc, intLess) {
			t.Fatal("sorted/reversed input not sorted")
		}
	})
}

type pair struct{ key, seq int }

// TestStableSortPreservesEqualOrder runs under every policy of the matrix,
// which includes a 3-worker pool: uneven runs and a three-way merge.
func TestStableSortPreservesEqualOrder(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(31))
		for _, n := range []int{30000, 1<<16 + 3} {
			s := make([]pair, n)
			for i := range s {
				s[i] = pair{key: rng.Intn(20), seq: i}
			}
			StableSort(p, s, func(a, b pair) bool { return a.key < b.key })
			for i := 1; i < len(s); i++ {
				if s[i-1].key > s[i].key {
					t.Fatalf("n=%d: not sorted at %d", n, i)
				}
				if s[i-1].key == s[i].key && s[i-1].seq >= s[i].seq {
					t.Fatalf("n=%d: stability violated at %d: seq %d then %d", n, i, s[i-1].seq, s[i].seq)
				}
			}
		}
	})
}

// forEachMergePolicy runs fn under every cell of the policy matrix and under
// a 2-worker pool, the smallest that takes the parallel merge, whose two
// output parts meet at a single co-rank split.
func forEachMergePolicy(t *testing.T, fn func(t *testing.T, p Policy)) {
	t.Helper()
	forEachPolicy(t, fn)
	t.Run("stealing/2w", func(t *testing.T) {
		fn(t, poolPolicy(native.StrategyStealing, 2, exec.Auto)(t))
	})
}

func TestMerge(t *testing.T) {
	forEachMergePolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(37))
		for _, sizes := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1000, 3000}, {20000, 20000}, {17, 40000}} {
			a := randomInts(rng, sizes[0], 1000)
			b := randomInts(rng, sizes[1], 1000)
			slices.Sort(a)
			slices.Sort(b)
			dst := make([]int, len(a)+len(b))
			Merge(p, dst, a, b, intLess)
			want := append(append([]int{}, a...), b...)
			slices.Sort(want)
			if !equalSlices(dst, want) {
				t.Fatalf("sizes %v: merge mismatch", sizes)
			}
		}
	})
}

func TestMergeStability(t *testing.T) {
	forEachMergePolicy(t, func(t *testing.T, p Policy) {
		// a-elements carry seq < 100000; b-elements >= 100000. For equal
		// keys, all a's must precede all b's.
		mk := func(n, base int, rng *rand.Rand) []pair {
			s := make([]pair, n)
			for i := range s {
				s[i] = pair{key: rng.Intn(8), seq: base + i}
			}
			slices.SortStableFunc(s, func(x, y pair) int { return x.key - y.key })
			return s
		}
		rng := rand.New(rand.NewSource(41))
		a := mk(15000, 0, rng)
		b := mk(15000, 100000, rng)
		dst := make([]pair, len(a)+len(b))
		Merge(p, dst, a, b, func(x, y pair) bool { return x.key < y.key })
		for i := 1; i < len(dst); i++ {
			x, y := dst[i-1], dst[i]
			if x.key > y.key {
				t.Fatalf("not sorted at %d", i)
			}
			if x.key == y.key {
				// Within a source: ascending seq. Across sources: a first.
				if (x.seq < 100000) == (y.seq < 100000) {
					if x.seq >= y.seq {
						t.Fatalf("within-source order violated at %d", i)
					}
				} else if x.seq >= 100000 {
					t.Fatalf("b-element before equal a-element at %d", i)
				}
			}
		}
	})
}

func TestMergePanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Merge(Seq(), make([]int, 3), []int{1}, []int{2}, intLess)
}

func TestInplaceMerge(t *testing.T) {
	forEachMergePolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(43))
		s := randomInts(rng, 30000, 500)
		mid := 13000
		slices.Sort(s[:mid])
		slices.Sort(s[mid:])
		want := slices.Clone(s)
		slices.Sort(want)
		InplaceMerge(p, s, mid, intLess)
		if !equalSlices(s, want) {
			t.Fatal("inplace merge mismatch")
		}
		// Degenerate mids.
		s2 := []int{3, 1, 2}
		InplaceMerge(p, s2, 0, intLess)
		InplaceMerge(p, s2, 3, intLess)
		if !equalSlices(s2, []int{3, 1, 2}) {
			t.Fatal("degenerate mid mutated slice")
		}
	})
}

// TestInplaceMergeAllocs pins that InplaceMerge takes its buffer from the
// sorts' cached scratch: after warm-up a call on a pool allocates far less
// than an n-element buffer.
func TestInplaceMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race's sync.Pool drops a random share of Puts")
	}
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	p := Par(pool)
	const n, mid = 1 << 16, 1 << 16 / 3
	in := make([]float64, n)
	for i := range in {
		if in[i] = float64(2 * i); i >= mid {
			in[i] = float64(2*(i-mid) + 1)
		}
	}
	buf := make([]float64, n)
	less := func(a, b float64) bool { return a < b }
	copy(buf, in)
	InplaceMerge(p, buf, mid, less)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 20 {
		copy(buf, in)
		InplaceMerge(p, buf, mid, less)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 20; b >= n*8/4 {
		t.Errorf("InplaceMerge allocates %d bytes per call, want < %d", b, n*8/4)
	}
	if !slices.IsSorted(buf) {
		t.Fatal("InplaceMerge result not sorted")
	}
}

// TestInplaceMergePanicKeepsElements pins that a comparator panic while
// InplaceMerge merges back into s, sequentially or on a pool, leaves s
// holding the input's elements.
func TestInplaceMergePanicKeepsElements(t *testing.T) {
	for _, pc := range []policyCase{
		{"seq", func(*testing.T) Policy { return Seq() }},
		{"2w", poolPolicy(native.StrategyStealing, 2, exec.Auto)},
	} {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.mk(t)
			const n, mid = 1 << 15, 1<<15/2 + 77
			rng := rand.New(rand.NewSource(89))
			s := randomInts(rng, n, n)
			slices.Sort(s[:mid])
			slices.Sort(s[mid:])
			want := slicesSorted(s)
			var calls atomic.Int64
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("comparator panic lost")
					}
				}()
				// The co-rank split takes a few dozen comparisons, the
				// merge about one per element.
				InplaceMerge(p, s, mid, func(a, b int) bool {
					if calls.Add(1) > 2000 {
						panic("comparator exploded")
					}
					return a < b
				})
			}()
			if !slices.Equal(slicesSorted(s), want) {
				t.Fatal("elements lost during the panicked merge")
			}
		})
	}
}

// TestMergeStampsFirstChunk pins that the parallel Merge dispatches through
// the policy, which stamps FirstChunkNS on its first chunk.
func TestMergeStampsFirstChunk(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	var first int64
	p := Par(pool)
	p.FirstChunkNS = &first
	const n = 1 << 16
	a, b := make([]int, n/2), make([]int, n-n/2)
	for i := range a {
		a[i], b[i] = 2*i, 2*i+1
	}
	dst := make([]int, n)
	Merge(p, dst, a, b, intLess)
	if first == 0 {
		t.Fatal("parallel Merge left FirstChunkNS unstamped")
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
}

func TestIsSortedAndUntil(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := iota(30000)
		less := func(a, b float64) bool { return a < b }
		if !IsSorted(p, s, less) {
			t.Fatal("sorted slice reported unsorted")
		}
		if got := IsSortedUntil(p, s, less); got != len(s) {
			t.Fatalf("IsSortedUntil = %d", got)
		}
		s[20000] = 0
		if IsSorted(p, s, less) {
			t.Fatal("unsorted slice reported sorted")
		}
		if got := IsSortedUntil(p, s, less); got != 20000 {
			t.Fatalf("IsSortedUntil = %d, want 20000", got)
		}
		if !IsSorted(p, []float64{}, less) || !IsSorted(p, []float64{1}, less) {
			t.Fatal("degenerate inputs not sorted")
		}
	})
}

func TestNthElement(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(47))
		for _, n := range []int{1, 2, 100, 20000} {
			for trial := 0; trial < 3; trial++ {
				s := randomInts(rng, n, 300)
				k := rng.Intn(n)
				want := slices.Clone(s)
				slices.Sort(want)
				NthElement(p, s, k, intLess)
				if s[k] != want[k] {
					t.Fatalf("n=%d k=%d: s[k]=%d want %d", n, k, s[k], want[k])
				}
				for i := 0; i < k; i++ {
					if s[i] > s[k] {
						t.Fatalf("element before k greater than s[k]")
					}
				}
				for i := k + 1; i < n; i++ {
					if s[i] < s[k] {
						t.Fatalf("element after k less than s[k]")
					}
				}
			}
		}
	})
}

// TestNthElementAllocs pins that NthElement partitions, and
// PartialSortCopy copies, into the sorts' cached scratch: after warm-up a
// call on a pool allocates far less than its n-element input.
func TestNthElementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race's sync.Pool drops a random share of Puts")
	}
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	p := Par(pool)
	const n, k = 1 << 16, 100
	in := randomInts(rand.New(rand.NewSource(97)), n, n)
	want := slicesSorted(in)
	buf := make([]int, n)
	dst := make([]int, k)
	for _, c := range []struct {
		name  string
		call  func()
		check func() bool
	}{
		{"NthElement", func() { copy(buf, in); NthElement(p, buf, n/3, intLess) },
			func() bool { return buf[n/3] == want[n/3] }},
		{"PartialSortCopy", func() { PartialSortCopy(p, dst, in, intLess) },
			func() bool { return slices.Equal(dst, want[:k]) }},
	} {
		c.call()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			c.call()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / 20; b >= n*8/4 {
			t.Errorf("%s allocates %d bytes per call, want < %d", c.name, b, n*8/4)
		}
		if !c.check() {
			t.Errorf("%s result wrong", c.name)
		}
	}
}

// TestNthElementCanceledReturns: under a fired cancel token a partition
// round skips every chunk and moves nothing, so NthElement must return
// rather than repeat the round forever.
func TestNthElementCanceledReturns(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	tok := &exec.Cancel{}
	tok.Cancel()
	s := randomInts(rand.New(rand.NewSource(101)), 1<<16, 1000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		NthElement(Par(pool).WithCancel(tok), s, 100, intLess)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("NthElement did not return under a fired cancel token")
	}
}

func TestPartialSort(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(53))
		s := randomInts(rng, 25000, 10000)
		want := slices.Clone(s)
		slices.Sort(want)
		k := 500
		PartialSort(p, s, k, intLess)
		if !equalSlices(s[:k], want[:k]) {
			t.Fatal("first k elements not the k smallest in order")
		}
	})
}

func TestPartialSortCopy(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(59))
		src := randomInts(rng, 20000, 10000)
		orig := slices.Clone(src)
		want := slices.Clone(src)
		slices.Sort(want)
		dst := make([]int, 300)
		n := PartialSortCopy(p, dst, src, intLess)
		if n != 300 || !equalSlices(dst, want[:300]) {
			t.Fatalf("PartialSortCopy n=%d mismatch", n)
		}
		if !equalSlices(src, orig) {
			t.Fatal("PartialSortCopy mutated src")
		}
		// dst longer than src.
		short := []int{3, 1, 2}
		big := make([]int, 10)
		n = PartialSortCopy(p, big, short, intLess)
		if n != 3 || !equalSlices(big[:3], []int{1, 2, 3}) {
			t.Fatalf("short src: n=%d big=%v", n, big[:3])
		}
	})
}

func TestIsHeap(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		heap := []int{9, 7, 8, 3, 5, 6, 4}
		if !IsHeap(p, heap, intLess) {
			t.Fatal("valid heap rejected")
		}
		if got := IsHeapUntil(p, heap, intLess); got != len(heap) {
			t.Fatalf("IsHeapUntil = %d", got)
		}
		notHeap := []int{9, 7, 8, 3, 5, 10, 4}
		if IsHeap(p, notHeap, intLess) {
			t.Fatal("invalid heap accepted")
		}
		if got := IsHeapUntil(p, notHeap, intLess); got != 5 {
			t.Fatalf("IsHeapUntil = %d, want 5", got)
		}
		if !IsHeap(p, []int{}, intLess) || !IsHeap(p, []int{1}, intLess) {
			t.Fatal("degenerate heaps rejected")
		}
	})
}

func TestSortLargeUnderFineGrain(t *testing.T) {
	// Runs of many leaf sizes under every pool and grain of the matrix.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(61))
		s := shuffledPermutation(rng, 1<<17)
		Sort(p, s)
		for i, v := range s {
			if v != i+1 {
				t.Fatalf("s[%d] = %d", i, v)
			}
		}
	})
}

// sortParityPolicies are the policies the ordered-sort parity tests run
// under: Seq, a 1-worker pool (which takes the sequential path), and 2-, 3-
// and 4-worker pools (which run the multiway mergesort; 3 workers give
// uneven runs and a three-way merge).
func sortParityPolicies() []policyCase {
	cases := []policyCase{{"seq", func(*testing.T) Policy { return Seq() }}}
	for _, w := range []int{1, 2, 3, 4} {
		cases = append(cases, policyCase{fmt.Sprintf("%dw", w), poolPolicy(native.StrategyStealing, w, exec.Auto)})
	}
	return cases
}

// sortParitySizes straddle the leaf size, where the parallel path starts,
// and reach runs of 2^18 elements and more.
var sortParitySizes = []int{0, 1, sortLeafSize - 1, sortLeafSize, sortLeafSize + 1, 1<<16 + 3, 1 << 20}

// sortParityInputs returns named integer patterns of length n. At 2^20 only
// the heavy-duplicate pattern runs, to keep the suite fast.
func sortParityInputs(rng *rand.Rand, n int) map[string][]int {
	gen := func(f func(i int) int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	in := map[string][]int{"dups": gen(func(int) int { return rng.Intn(16) })}
	if n < 1<<20 {
		in["equal"] = gen(func(int) int { return 7 })
		in["sorted"] = gen(func(i int) int { return i })
		in["reversed"] = gen(func(i int) int { return n - i })
	}
	return in
}

// checkSortParity sorts a copy of in with Sort under p and compares it
// element by element with want, in sorted by slices.Sort, using
// cmp.Compare so that NaNs match NaNs.
func checkSortParity[T cmp.Ordered](t *testing.T, p Policy, in, want []T) {
	t.Helper()
	got := slices.Clone(in)
	Sort(p, got)
	for i := range want {
		if cmp.Compare(got[i], want[i]) != 0 {
			t.Fatalf("n=%d: Sort[%d] = %v, slices.Sort = %v", len(in), i, got[i], want[i])
		}
	}
}

// slicesSorted returns a copy of s sorted by slices.Sort, the reference.
func slicesSorted[T cmp.Ordered](s []T) []T {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

func TestSortOrderedMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	policies := sortParityPolicies()
	for _, n := range sortParitySizes {
		for kind, ints := range sortParityInputs(rng, n) {
			floats := make([]float64, n)
			strs := make([]string, n)
			for i, v := range ints {
				floats[i] = float64(v)
				strs[i] = fmt.Sprintf("%08d", v)
			}
			wantInts, wantFloats, wantStrs := slicesSorted(ints), slicesSorted(floats), slicesSorted(strs)
			for _, pc := range policies {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, kind, pc.name), func(t *testing.T) {
					p := pc.mk(t)
					checkSortParity(t, p, ints, wantInts)
					checkSortParity(t, p, floats, wantFloats)
					checkSortParity(t, p, strs, wantStrs)
				})
			}
		}
	}
}

// TestSortOrderedNaNsFirst pins the cmp.Less order for floats: NaNs come
// first, then the rest ascending with infinities at the ends.
func TestSortOrderedNaNsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range sortParitySizes {
		in := make([]float64, n)
		nans := 0
		for i := range in {
			switch i % 11 {
			case 0:
				in[i] = math.NaN()
				nans++
			case 5:
				in[i] = math.Inf(1 - 2*(i%2))
			default:
				in[i] = float64(rng.Intn(100))
			}
		}
		want := slicesSorted(in)
		for _, pc := range sortParityPolicies() {
			t.Run(fmt.Sprintf("n=%d/%s", n, pc.name), func(t *testing.T) {
				p := pc.mk(t)
				checkSortParity(t, p, in, want)
				s := slices.Clone(in)
				Sort(p, s)
				for i, v := range s {
					if math.IsNaN(v) != (i < nans) {
						t.Fatalf("s[%d] = %v with %d NaNs: NaNs must come first", i, v, nans)
					}
					if i > nans && s[i-1] > v {
						t.Fatalf("s[%d] = %v after %v: not ascending", i, v, s[i-1])
					}
				}
			})
		}
	}
}

// radixShape returns n floats near ±1.5 whose keys share every byte but the
// low live ones, each of which takes both extreme values, so the float
// radix sort makes exactly live scatter passes.
func radixShape(rng *rand.Rand, n, live int, neg bool) []float64 {
	base := math.Float64bits(1.5)
	if neg {
		base |= 1 << 63
	}
	mask := uint64(1)<<(8*live) - 1
	s := make([]float64, n)
	for i := range s {
		var low uint64
		switch i % 1000 {
		case 0:
		case 1:
			low = mask
		default:
			low = rng.Uint64() & mask
		}
		s[i] = math.Float64frombits(base&^mask | low)
	}
	return s
}

// TestRadixPasses pins where the float radix sort leaves its result: after
// an odd number of scatter passes in the other buffer, after an even one
// (none included) in the input. Each shape is also sorted by Seq and by
// the parallel sort on 2 and 3 workers, whose leaves radix from s into the
// scratch and copy the run over when the result stays in s.
func TestRadixPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	policies := []Policy{Seq()}
	for _, w := range []int{2, 3} {
		pool := native.New(w, native.StrategyStealing)
		defer pool.Close()
		policies = append(policies, Par(pool))
	}
	for live := range 4 {
		for _, neg := range []bool{false, true} {
			in := radixShape(rng, 2*sortLeafSize+5, live, neg)
			want := slicesSorted(in)
			a, b := slices.Clone(in), make([]float64, len(in))
			inB := radixSort(a, b)
			if inB != (live%2 == 1) {
				t.Errorf("live=%d neg=%v: result in b is %v after %d passes", live, neg, inB, live)
			}
			got := a
			if inB {
				got = b
			}
			if !slices.Equal(got, want) {
				t.Errorf("live=%d neg=%v: radixSort result differs from slices.Sort", live, neg)
			}
			for _, p := range policies {
				checkSortParity(t, p, in, want)
			}
		}
	}
}

// TestRadixLeafSpecials runs the float leaf of the parallel sort on mixes
// of NaNs of either sign, ±0, subnormals, ±Inf and ordinary values, on
// both sides of the radix cut-off and with the result landing in either
// buffer, and checks that dst is sorted as by slices.Sort and that src
// still holds the input's elements.
func TestRadixLeafSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -1, 1,
	}
	mixes := map[string]func(i int) float64{
		"specials":      func(i int) float64 { return specials[rng.Intn(len(specials))] },
		"specials+rand": func(i int) float64 { return []float64{specials[i%len(specials)], rng.NormFloat64()}[i%2] },
		// One live byte besides the NaNs: one pass, so the result and the
		// NaN prefix land in dst.
		"nans+1byte": func(i int) float64 {
			if i%7 == 0 {
				return math.NaN()
			}
			return math.Float64frombits(math.Float64bits(1.5) | uint64(rng.Intn(256)))
		},
		"nans": func(int) float64 { return math.NaN() },
	}
	for _, n := range []int{radixMinLen - 1, radixMinLen, 3000} {
		for name, gen := range mixes {
			in := make([]float64, n)
			for i := range in {
				in[i] = gen(i)
			}
			want := slicesSorted(in)
			src, dst := slices.Clone(in), make([]float64, n)
			orderedKernels[float64]{}.leafInto(dst, src)
			for i := range want {
				if cmp.Compare(dst[i], want[i]) != 0 {
					t.Fatalf("%s n=%d: leaf[%d] = %v, slices.Sort %v", name, n, i, dst[i], want[i])
				}
			}
			if got := slicesSorted(src); !slices.EqualFunc(got, want, func(a, b float64) bool { return cmp.Compare(a, b) == 0 }) {
				t.Fatalf("%s n=%d: src no longer holds the input's elements", name, n)
			}
		}
	}
}

// TestSortAllocs pins that the ordered sort allocates nothing up to the leaf
// size, and on the parallel path no more than SortFunc with a capture-free
// less: the ordered kernels carry no state to allocate. The parallel path
// reuses its n-element scratch, also after a cancelled call, so after
// warm-up a call allocates far less than the scratch's n*8 bytes.
func TestSortAllocs(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	par := Par(pool)
	rng := rand.New(rand.NewSource(73))
	fill := func(n int) (in, buf []float64) {
		in = make([]float64, n)
		for i := range in {
			in[i] = rng.Float64()
		}
		return in, make([]float64, n)
	}
	for _, n := range []int{2, 100, sortLeafSize} {
		in, buf := fill(n)
		for name, p := range map[string]Policy{"seq": Seq(), "2w": par} {
			// The float radix sort borrows the cached scratch. -race's
			// sync.Pool drops a quarter of Puts, so there about one call
			// in four allocates a scratch (two allocations); the whole
			// number AllocsPerRun reports over 100 calls stays 0.
			if a := testing.AllocsPerRun(100, func() { copy(buf, in); Sort(p, buf) }); a != 0 {
				t.Errorf("%s n=%d: Sort allocates %v per call, want 0", name, n, a)
			}
		}
	}
	in, buf := fill(1 << 16)
	ordered := testing.AllocsPerRun(20, func() { copy(buf, in); Sort(par, buf) })
	byFunc := testing.AllocsPerRun(20, func() {
		copy(buf, in)
		SortFunc(par, buf, func(a, b float64) bool { return a < b })
	})
	// -race's sync.Pool drops a random share of Puts, so either side may
	// allocate a new scratch in some of its calls.
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	if ordered > byFunc+slack {
		t.Errorf("parallel Sort allocates %v per call, SortFunc %v", ordered, byFunc)
	}
	if raceEnabled {
		return // the byte bound below relies on every Put being kept
	}
	tok := &exec.Cancel{}
	tok.Cancel()
	for name, p := range map[string]Policy{"2w": par, "2w cancelled": par.WithCancel(tok)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			copy(buf, in)
			Sort(p, buf)
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / 20; b >= uint64(len(in)*8/4) {
			t.Errorf("%s n=%d: Sort allocates %d bytes per call, want < %d", name, len(in), b, len(in)*8/4)
		}
	}
}

// TestSortScratchPinsNothing pins that the cached scratch keeps no caller
// element reachable: after SortFunc, StableSort and InplaceMerge of
// pointers, one of the sorts cancelled after its runs were copied into the
// scratch, every element is collected once the caller drops it.
func TestSortScratchPinsNothing(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	par := Par(pool)
	const n = 1 << 16
	less := func(a, b *int) bool { return *a < *b }
	var freed atomic.Int64
	sortDropped := func(sortFn func(s []*int)) {
		s := make([]*int, n)
		for i := range s {
			// A 16-byte block is never shared by the tiny allocator,
			// whose shared blocks may not run their finalizers.
			v := &new([2]int)[0]
			*v = i * 7919 % n
			runtime.SetFinalizer(v, func(*int) { freed.Add(1) })
			s[i] = v
		}
		sortFn(s)
	}
	sortDropped(func(s []*int) { SortFunc(par, s, less) })
	sortDropped(func(s []*int) { StableSort(par, s, less) })
	sortDropped(func(s []*int) {
		tok := &exec.Cancel{}
		var calls atomic.Int64
		StableSort(par.WithCancel(tok), s, func(a, b *int) bool {
			if calls.Add(1) == 1000 {
				tok.Cancel()
			}
			return *a < *b
		})
		if !tok.Canceled() {
			t.Fatal("sort not cancelled")
		}
	})
	sortDropped(func(s []*int) {
		slices.SortFunc(s[:n/3], lessToCmp(less))
		slices.SortFunc(s[n/3:], lessToCmp(less))
		InplaceMerge(par, s, n/3, less)
	})
	runtime.GC()
	for deadline := time.Now().Add(time.Second); freed.Load() < 4*n && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != 4*n {
		t.Fatalf("%d of %d sorted elements collected: the sort scratch keeps the rest reachable", got, 4*n)
	}
}

// TestSortPanicInMergeKeepsElements pins that a comparator panic in the
// merge pass, which overwrites s, still leaves s holding the input's
// elements: with a two-way merge on a stealing pool and with the head scan
// of a four-way merge on a central-queue pool.
func TestSortPanicInMergeKeepsElements(t *testing.T) {
	for _, c := range []struct {
		workers  int
		strategy native.Strategy
	}{{2, native.StrategyStealing}, {4, native.StrategyCentralQueue}} {
		t.Run(fmt.Sprintf("%dw/%v", c.workers, c.strategy), func(t *testing.T) {
			pool := native.New(c.workers, c.strategy)
			defer pool.Close()
			const n = 1 << 15
			w := c.workers
			rng := rand.New(rand.NewSource(83))
			// Run m holds the values congruent to m modulo the worker
			// count, so only the split selection and the merge compare
			// across runs.
			s := make([]int, n)
			for i, v := range rng.Perm(n / w) {
				for m := range w {
					s[m*n/w+i] = w*v + m
				}
			}
			want := slicesSorted(s)
			var cross atomic.Int64
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("comparator panic lost")
					}
				}()
				SortFunc(Par(pool), s, func(a, b int) bool {
					// Selecting the splits compares across runs a few
					// hundred times at most, the merge at least once per
					// element.
					if a%w != b%w && cross.Add(1) > 2000 {
						panic("comparator exploded")
					}
					return a < b
				})
			}()
			if !slices.Equal(slicesSorted(s), want) {
				t.Fatal("elements lost during the panicked merge")
			}
		})
	}
}

// fuzzFloats decodes fuzz bytes into a float slice: the first two bytes
// give the length (up to 65535, past the parallel cut-off), the rest a
// value pattern repeated to fill it. Pattern bytes 0xfc..0xff decode to
// -0, -Inf, +Inf and NaN; the others to small integers, so duplicates are
// common. Each repetition shifts the pattern by one so repeats differ.
func fuzzFloats(data []byte) []float64 {
	if len(data) < 3 {
		return nil
	}
	n, pat := int(binary.LittleEndian.Uint16(data)), data[2:]
	s := make([]float64, n)
	for i := range s {
		switch b := pat[i%len(pat)] + byte(i/len(pat)); b {
		case 0xff:
			s[i] = math.NaN()
		case 0xfe:
			s[i] = math.Inf(1)
		case 0xfd:
			s[i] = math.Inf(-1)
		case 0xfc:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = float64(int8(b))
		}
	}
	return s
}

// addSortSeeds adds the fuzzFloats seeds both sort fuzzers start from.
func addSortSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0xff, 1, 0xfe})                            // NaN, 1, +Inf
	f.Add([]byte{0x03, 0x00, 0xff, 0xff, 0x80, 0x7f, 0xfd, 0xfe}) // NaN, NaN, -128
	f.Add([]byte{0x00, 0x10, 0xff, 0xfe, 0xfd, 0xfc, 0, 1, 1, 2}) // 4096: leaf size
	f.Add([]byte{0xff, 0x01, 0xfc, 3, 0xff, 0, 0xfd, 0xfe, 1})    // 511: below the radix cut-off
	f.Add([]byte{0x00, 0x02, 0xfc, 3, 0xff, 0, 0xfd, 0xfe, 1})    // 512: radix sort
	f.Add([]byte{0x01, 0x10, 7, 0xff, 7, 0xfc, 0})                // 4097: parallel
	f.Add([]byte{0x34, 0x92, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xfc}) // 37428: descending runs
	f.Add([]byte{0xff, 0xff, 0x42})                               // 65535: every byte value
}

// fuzzPools returns parallel policies over stealing pools of the given
// sizes, closed when the fuzz target finishes.
func fuzzPools(f *testing.F, workers ...int) []Policy {
	var ps []Policy
	for _, w := range workers {
		pool := native.New(w, native.StrategyStealing)
		f.Cleanup(pool.Close)
		ps = append(ps, Par(pool))
	}
	return ps
}

// fuzzBits decodes fuzz bytes into a float slice in which every bit of a
// value can vary: the first two bytes give the length, as in fuzzFloats,
// and each further 8 bytes the bits of one pattern value, repeated to fill
// it. Repetition r adds r to the bits, so repeats differ in their low key
// bytes and share the high ones.
func fuzzBits(data []byte) []float64 {
	if len(data) < 10 {
		return nil
	}
	n, pat := int(binary.LittleEndian.Uint16(data)), data[2:]
	m := len(pat) / 8
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(pat[8*(i%m):]) + uint64(i/m))
	}
	return s
}

// bitsSeed encodes a fuzzBits input of length n repeating vals.
func bitsSeed(n uint16, vals ...uint64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, n)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// FuzzSortOrdered checks Sort against slices.Sort on Seq and on 2- and
// 3-worker pools, an even and an uneven split into runs. Every input is
// decoded twice: by fuzzFloats, whose small integers share most key bytes,
// and by fuzzBits, whose values reach every key byte, NaN payloads of
// either sign, subnormals, ±0 and ±Inf.
func FuzzSortOrdered(f *testing.F) {
	addSortSeeds(f)
	special := []uint64{
		0xfff8000000000001, // -NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0x0000000000000001, // smallest subnormal
		0x800000000000000f, // negative subnormal
		0x8000000000000000, // -0
		0x0000000000000000, // +0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x3ff8000000000000, // 1.5
		0xc0f0000000000000, // -65536
	}
	for _, n := range []uint16{radixMinLen - 1, radixMinLen, 4097} {
		f.Add(bitsSeed(n, special...))
	}
	f.Add(bitsSeed(40000, 0x4130000000000000, 0xbff0000000000000)) // 2^20, -1: long runs of neighbours
	f.Add(bitsSeed(600, 0x7ff8000000000000))                       // NaNs only
	// The radix pass shapes of TestRadixPasses: 0, 1, 2 and 3 live key
	// bytes, so the result lands in s or in the scratch, sequentially
	// (600) and in the leaves of the parallel sort (8200).
	f.Add(append([]byte{0x58, 0x02}, bytes.Repeat([]byte{7}, 600)...)) // 600 × 7.0: no pass
	same := make([]uint64, 40)
	for i := range same {
		same[i] = 0x3ff8000000000000
	}
	for _, n := range []uint16{600, 8200} {
		f.Add(bitsSeed(n, same...))                                                    // 1.5 + i/40: one pass
		f.Add(bitsSeed(n, 0xbff8000000000000))                                         // -1.5 - i: two passes
		f.Add(bitsSeed(n, 0x3ff8000000000000, 0x3ff8000000010000))                     // three passes
		f.Add(bitsSeed(n, 0x7ff8000000000000, 0x3ff8000000000000, 0x8000000000000000)) // NaN, 1.5 and -0 + i/3
	}
	ps := append([]Policy{Seq()}, fuzzPools(f, 2, 3)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]float64{fuzzFloats(data), fuzzBits(data)} {
			want := slicesSorted(in)
			for _, p := range ps {
				checkSortParity(t, p, in, want)
			}
		}
	})
}

// FuzzStableSort sorts (key, original index) pairs by key alone with
// StableSort on a 3-worker pool, whose runs are uneven and whose merge is
// three-way, and compares the order with slices.SortStableFunc. The keys
// are fuzzFloats values under cmp.Compare, so duplicates, NaNs and ±0 all
// form tie classes whose order only stability decides.
func FuzzStableSort(f *testing.F) {
	addSortSeeds(f)
	p := fuzzPools(f, 3)[0]
	type keyed struct {
		key float64
		seq int
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := fuzzFloats(data)
		got := make([]keyed, len(keys))
		for i, k := range keys {
			got[i] = keyed{k, i}
		}
		want := slices.Clone(got)
		slices.SortStableFunc(want, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		StableSort(p, got, func(a, b keyed) bool { return cmp.Less(a.key, b.key) })
		for i := range want {
			if got[i].seq != want[i].seq {
				t.Fatalf("n=%d: StableSort[%d] is input %d, slices.SortStableFunc input %d", len(keys), i, got[i].seq, want[i].seq)
			}
		}
	})
}

// FuzzMerge merges (key, original index) pairs by key alone on Seq and on
// 2- and 3-worker pools and compares the order with slices.SortStableFunc
// of a followed by b, so on equal keys every element of a must come first.
// The keys are fuzzFloats values under cmp.Compare; the last input byte
// picks where the input splits into a and b, each then sorted stably.
func FuzzMerge(f *testing.F) {
	addSortSeeds(f)
	f.Add([]byte{0x20, 0x4e, 3, 0xff, 3, 0xfc, 0, 1, 0x01})        // 20000, a of 78
	f.Add([]byte{0x20, 0x4e, 5, 4, 5, 0xfe, 0x80})                 // 20000, split near the middle
	f.Add([]byte{0x01, 0x20, 0xfd, 9, 9, 9, 0xff, 0xfe})           // 8193, b of 33
	f.Add([]byte{0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0xab}) // 65535, many tie classes
	ps := append([]Policy{Seq()}, fuzzPools(f, 2, 3)...)
	type keyed struct {
		key float64
		seq int
	}
	byKey := func(a, b keyed) int { return cmp.Compare(a.key, b.key) }
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := fuzzFloats(data)
		in := make([]keyed, len(keys))
		for i, k := range keys {
			in[i] = keyed{k, i}
		}
		mid := 0
		if len(data) > 0 {
			mid = len(in) * int(data[len(data)-1]) / 255
		}
		a, b := in[:mid], in[mid:]
		slices.SortStableFunc(a, byKey)
		slices.SortStableFunc(b, byKey)
		want := slices.Clone(in)
		slices.SortStableFunc(want, byKey)
		got := make([]keyed, len(in))
		for _, p := range ps {
			clear(got)
			Merge(p, got, a, b, func(x, y keyed) bool { return cmp.Less(x.key, y.key) })
			for i := range want {
				if got[i].seq != want[i].seq {
					t.Fatalf("n=%d mid=%d workers=%d: Merge[%d] is input %d, slices.SortStableFunc input %d", len(in), mid, p.workers(), i, got[i].seq, want[i].seq)
				}
			}
		}
	})
}

// BenchmarkSort times ordered Sort against SortFunc with the same order at
// three shapes: 2^10 on Seq, 2^16 on a 1-worker pool (a pstld sort job's
// shape, which takes the sequential path), and 2^22 on 2 workers (the
// parallel recursion beyond the last-level cache). Each shape runs two
// inputs that sit on either side of the float radix sort's digit skip:
// "frac" holds rng.Float64() values, whose key bytes are nearly all live,
// and "int" integer-valued floats below 2^20, the keys every perfbench
// sort uses, whose low four key bytes are constant. Each iteration
// restores the input inside the timed loop, because StopTimer's memstats
// read would swamp the microsecond-scale calls.
func BenchmarkSort(b *testing.B) {
	for _, c := range []struct {
		name       string
		n, workers int
	}{
		{"seq/n=1024", 1 << 10, 0},
		{"1w/n=65536", 1 << 16, 1},
		{"2w/n=4194304", 1 << 22, 2},
	} {
		p := Seq()
		if c.workers > 0 {
			pool := native.New(c.workers, native.StrategyStealing)
			defer pool.Close()
			p = Par(pool)
		}
		buf := make([]float64, c.n)
		for _, in := range []struct {
			name string
			gen  func(rng *rand.Rand) float64
		}{
			{"frac", func(rng *rand.Rand) float64 { return rng.Float64() }},
			{"int", func(rng *rand.Rand) float64 { return float64(rng.Intn(1 << 20)) }},
		} {
			rng := rand.New(rand.NewSource(79))
			vals := make([]float64, c.n)
			for i := range vals {
				vals[i] = in.gen(rng)
			}
			for _, k := range []struct {
				name string
				sort func()
			}{
				{"ordered", func() { Sort(p, buf) }},
				{"func", func() { SortFunc(p, buf, func(x, y float64) bool { return x < y }) }},
			} {
				b.Run(c.name+"/"+in.name+"/"+k.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(buf, vals)
						k.sort()
					}
					b.ReportMetric(float64(c.n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
				})
			}
		}
	}
}
