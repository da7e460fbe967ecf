package core

import (
	"slices"
	"testing"
	"testing/quick"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

// quickPolicy builds a parallel policy for property tests. Property checks
// run many iterations, so the pool is shared across them.
func quickPolicy(t *testing.T) Policy {
	t.Helper()
	pool := native.New(4, native.StrategyStealing)
	t.Cleanup(pool.Close)
	// A fine grain splits even tiny generated inputs into several chunks,
	// so the properties exercise the interesting code.
	return Par(pool).WithGrain(exec.Fine)
}

var quickCfg = &quick.Config{MaxCount: 300}

// Property: Sort produces a sorted permutation of its input.
func TestPropSortIsSortedPermutation(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []int) bool {
		in := slices.Clone(s)
		SortFunc(p, in, intLess)
		if !slices.IsSorted(in) {
			return false
		}
		want := slices.Clone(s)
		slices.Sort(want)
		return equalSlices(in, want)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: parallel Sum equals sequential Sum for any input (integers, so
// associativity is exact).
func TestPropReduceMatchesSequential(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []int32, init int32) bool {
		ints := make([]int64, len(s))
		for i, v := range s {
			ints[i] = int64(v)
		}
		return Sum(p, ints, int64(init)) == Sum(Seq(), ints, int64(init))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: InclusiveScan's last element equals Reduce, and every prefix
// satisfies dst[i] = dst[i-1] + src[i].
func TestPropScanPrefixProperty(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []int32) bool {
		src := make([]int64, len(s))
		for i, v := range s {
			src[i] = int64(v)
		}
		dst := make([]int64, len(src))
		InclusiveSum(p, dst, src)
		if len(src) == 0 {
			return true
		}
		if dst[0] != src[0] {
			return false
		}
		for i := 1; i < len(dst); i++ {
			if dst[i] != dst[i-1]+src[i] {
				return false
			}
		}
		return dst[len(dst)-1] == Sum(Seq(), src, 0)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: ExclusiveScan is InclusiveScan shifted right by one with init
// in front.
func TestPropExclusiveIsShiftedInclusive(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []int32, init32 int32) bool {
		init := int64(init32)
		src := make([]int64, len(s))
		for i, v := range s {
			src[i] = int64(v)
		}
		add := func(a, b int64) int64 { return a + b }
		inc := make([]int64, len(src))
		exc := make([]int64, len(src))
		InclusiveScan(p, inc, src, add)
		ExclusiveScan(p, exc, src, init, add)
		for i := range src {
			want := init
			if i > 0 {
				want = init + inc[i-1]
			}
			if exc[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Find returns the same index as a linear scan.
func TestPropFindFirstEquivalence(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []uint8, v uint8) bool {
		want := -1
		for i, e := range s {
			if e == v {
				want = i
				break
			}
		}
		return Find(p, s, v) == want
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: CountIf(pred) + CountIf(!pred) == len(s).
func TestPropCountPartitionsInput(t *testing.T) {
	p := quickPolicy(t)
	pred := func(v int8) bool { return v%3 == 0 }
	f := func(s []int8) bool {
		a := CountIf(p, s, pred)
		b := CountIf(p, s, func(v int8) bool { return !pred(v) })
		return a+b == len(s)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: StablePartition keeps every element, puts matches first, and
// preserves relative order in both halves.
func TestPropStablePartitionInvariants(t *testing.T) {
	p := quickPolicy(t)
	pred := func(v int16) bool { return v&1 == 0 }
	f := func(s []int16) bool {
		in := slices.Clone(s)
		k := StablePartition(p, in, pred)
		var wantYes, wantNo []int16
		for _, v := range s {
			if pred(v) {
				wantYes = append(wantYes, v)
			} else {
				wantNo = append(wantNo, v)
			}
		}
		return k == len(wantYes) &&
			equalSlices(in[:k], wantYes) &&
			equalSlices(in[k:], wantNo)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge of two sorted inputs is sorted and a permutation of the
// concatenation.
func TestPropMergeSortedPermutation(t *testing.T) {
	p := quickPolicy(t)
	f := func(a, b []int) bool {
		slices.Sort(a)
		slices.Sort(b)
		dst := make([]int, len(a)+len(b))
		Merge(p, dst, a, b, intLess)
		if !slices.IsSorted(dst) {
			return false
		}
		want := append(slices.Clone(a), b...)
		slices.Sort(want)
		return equalSlices(dst, want)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: MinElement/MaxElement agree with Reduce-based extrema.
func TestPropMinMaxAgreeWithReduce(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []int) bool {
		if len(s) == 0 {
			return MinElement(p, s, intLess) == -1
		}
		mi := MinElement(p, s, intLess)
		ma := MaxElement(p, s, intLess)
		lo, hi := s[0], s[0]
		for _, v := range s {
			lo, hi = min(lo, v), max(hi, v)
		}
		return s[mi] == lo && s[ma] == hi
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Reverse twice is the identity.
func TestPropDoubleReverseIdentity(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []int) bool {
		in := slices.Clone(s)
		Reverse(p, in)
		Reverse(p, in)
		return equalSlices(in, s)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Unique leaves no adjacent duplicates and preserves the
// first element of every run.
func TestPropUniqueNoAdjacentDuplicates(t *testing.T) {
	p := quickPolicy(t)
	f := func(s []uint8) bool {
		in := slices.Clone(s)
		n := Unique(p, in)
		for i := 1; i < n; i++ {
			if in[i] == in[i-1] {
				return false
			}
		}
		want := slices.Compact(slices.Clone(s))
		return n == len(want) && equalSlices(in[:n], want)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: set_union cardinality identity
// |A ∪ B| = |A| + |B| − |A ∩ B| holds for multisets.
func TestPropSetCardinalities(t *testing.T) {
	p := quickPolicy(t)
	f := func(a, b []uint8) bool {
		slices.Sort(a)
		slices.Sort(b)
		u := make([]uint8, len(a)+len(b))
		i := make([]uint8, max(len(a), len(b)))
		nu := SetUnion(p, u, a, b, func(x, y uint8) bool { return x < y })
		ni := SetIntersection(p, i, a, b, func(x, y uint8) bool { return x < y })
		return nu == len(a)+len(b)-ni
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
