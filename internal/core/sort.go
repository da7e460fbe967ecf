package core

import (
	"cmp"
	"slices"
	"sort"
)

// sortLeafSize is the input size below which the parallel mergesort hands a
// sub-range to the sequential sort. It bounds task overhead the same way
// the TBB and GNU runtimes' sequential-fallback thresholds do (the paper
// observes both fall back below ~2^9 elements).
const sortLeafSize = 1 << 12

// Sort sorts s in ascending order (std::sort with execution policy). The
// parallel implementation is a mergesort — unstable sequential leaf sorts
// followed by log(p) rounds of stable parallel merges — whose limited
// scalability is exactly the behaviour studied in the paper's X::sort
// experiments. Like std::sort on a template, the comparison is compiled
// into the leaf sort and the merge loop rather than called through a
// function value. NaNs sort first, as under cmp.Less.
func Sort[T cmp.Ordered](p Policy, s []T) {
	if !p.parallel(len(s)) || len(s) <= sortLeafSize {
		slices.Sort(s)
		return
	}
	parallelSort(p, s, orderedKernels[T]{})
}

// SortFunc sorts s under the strict weak ordering less.
func SortFunc[T any](p Policy, s []T, less func(a, b T) bool) {
	if !p.parallel(len(s)) || len(s) <= sortLeafSize {
		slices.SortFunc(s, lessToCmp(less))
		return
	}
	parallelSort(p, s, lessKernels[T]{less, false})
}

// StableSort sorts s preserving the relative order of equal elements
// (std::stable_sort). The parallel mergesort is naturally stable; only the
// leaf sort differs from SortFunc.
func StableSort[T any](p Policy, s []T, less func(a, b T) bool) {
	if !p.parallel(len(s)) || len(s) <= sortLeafSize {
		slices.SortStableFunc(s, lessToCmp(less))
		return
	}
	parallelSort(p, s, lessKernels[T]{less, true})
}

// sortKernels is the element-level work under the parallel mergesort
// recursion. The recursion stops splitting at sortLeafSize elements and
// calls a kernel once per leaf, merge block or split point, so the
// indirect call is amortised over thousands of elements while the
// per-element comparison lives inside the kernel.
type sortKernels[T any] interface {
	leaf(s []T)                // sequential leaf sort
	merge(dst, a, b []T)       // sequential stable merge of sorted a and b
	lowerBound(s []T, v T) int // first i with !(s[i] < v)
	upperBound(s []T, v T) int // first i with v < s[i]
}

// orderedKernels compare with cmp.Less inline. They carry no state, so
// using them allocates nothing.
type orderedKernels[T cmp.Ordered] struct{}

func (orderedKernels[T]) leaf(s []T) { slices.Sort(s) }

func (orderedKernels[T]) merge(dst, a, b []T) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp.Less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

func (orderedKernels[T]) lowerBound(s []T, v T) int {
	i, _ := slices.BinarySearch(s, v)
	return i
}

// upperBound bisects rather than scanning forward from the lower bound,
// which would cost O(duplicates).
func (orderedKernels[T]) upperBound(s []T, v T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if cmp.Less(v, s[h]) {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// lessKernels call the caller's less for every comparison.
type lessKernels[T any] struct {
	less   func(a, b T) bool
	stable bool
}

func (k lessKernels[T]) leaf(s []T) {
	if k.stable {
		slices.SortStableFunc(s, lessToCmp(k.less))
	} else {
		slices.SortFunc(s, lessToCmp(k.less))
	}
}

func (k lessKernels[T]) merge(dst, a, b []T) { seqMerge(dst, a, b, k.less) }

func (k lessKernels[T]) lowerBound(s []T, v T) int { return lowerBound(s, v, k.less) }

func (k lessKernels[T]) upperBound(s []T, v T) int { return upperBound(s, v, k.less) }

// lessToCmp adapts a less predicate to the three-way comparison the slices
// package expects. Equality is reported as 0 via double negation, which is
// exactly what a strict weak ordering guarantees.
func lessToCmp[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	}
}

// mergeDepth returns the recursion depth that yields at least one leaf per
// worker (2^depth >= workers).
func mergeDepth(workers int) int {
	d := 0
	for 1<<d < workers {
		d++
	}
	return d + 1 // one extra level so stealing has slack to balance
}

// parallelSort sorts s, which the caller has judged large enough to
// parallelise, with a merge scratch buffer of the same length.
func parallelSort[T any, K sortKernels[T]](p Policy, s []T, k K) {
	parallelMergeSort(p, s, make([]T, len(s)), k, mergeDepth(p.workers()))
}

// parallelMergeSort sorts s in place using tmp (same length) as merge
// scratch.
func parallelMergeSort[T any, K sortKernels[T]](p Policy, s, tmp []T, k K, depth int) {
	if p.Canceled() {
		return // abandon the subtree; the result is discarded by contract
	}
	if depth == 0 || len(s) <= sortLeafSize {
		k.leaf(s)
		return
	}
	mid := len(s) / 2
	p.pool().Do(
		func() { parallelMergeSort(p, s[:mid], tmp[:mid], k, depth-1) },
		func() { parallelMergeSort(p, s[mid:], tmp[mid:], k, depth-1) },
	)
	parallelMergeInto(p, tmp, s[:mid], s[mid:], k, depth)
	copyChunked(p, s, tmp)
}

// copyChunked is a parallel copy used inside the sort, bypassing the
// policy's sequential threshold (the surrounding sort already decided to be
// parallel).
func copyChunked[T any](p Policy, dst, src []T) {
	p.ParallelFor(len(src), func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Merge merges the sorted slices a and b into dst (std::merge). dst must
// have length len(a)+len(b) and must not overlap a or b. The merge is
// stable: equal elements are taken from a first.
func Merge[T any](p Policy, dst, a, b []T, less func(x, y T) bool) {
	if len(dst) != len(a)+len(b) {
		panic("core.Merge: dst length must be len(a)+len(b)")
	}
	if !p.parallel(len(dst)) {
		seqMerge(dst, a, b, less)
		return
	}
	parallelMergeInto(p, dst, a, b, lessKernels[T]{less: less}, mergeDepth(p.workers()))
}

// parallelMergeInto recursively splits the larger input at its median,
// binary-searches the split point in the other input, and merges the two
// halves concurrently — the classic divide-and-conquer parallel merge.
// Stability (equal elements of a before equal elements of b) is preserved
// by the asymmetric split rules: splitting on a's median uses lower_bound
// in b, splitting on b's median uses upper_bound in a.
func parallelMergeInto[T any, K sortKernels[T]](p Policy, dst, a, b []T, k K, depth int) {
	if p.Canceled() {
		return
	}
	if depth <= 0 || len(a)+len(b) <= sortLeafSize {
		k.merge(dst, a, b)
		return
	}
	if len(a) >= len(b) {
		ma := len(a) / 2
		pivot := a[ma]
		mb := k.lowerBound(b, pivot) // b-elements equal to pivot go right of it
		dst[ma+mb] = pivot
		p.pool().Do(
			func() { parallelMergeInto(p, dst[:ma+mb], a[:ma], b[:mb], k, depth-1) },
			func() { parallelMergeInto(p, dst[ma+mb+1:], a[ma+1:], b[mb:], k, depth-1) },
		)
		return
	}
	mb := len(b) / 2
	pivot := b[mb]
	ma := k.upperBound(a, pivot) // a-elements equal to pivot go left of it
	dst[ma+mb] = pivot
	p.pool().Do(
		func() { parallelMergeInto(p, dst[:ma+mb], a[:ma], b[:mb], k, depth-1) },
		func() { parallelMergeInto(p, dst[ma+mb+1:], a[ma:], b[mb+1:], k, depth-1) },
	)
}

// lowerBound returns the first index i in sorted s with !less(s[i], v),
// i.e. the std::lower_bound insertion point for v.
func lowerBound[T any](s []T, v T, less func(x, y T) bool) int {
	return sort.Search(len(s), func(i int) bool { return !less(s[i], v) })
}

// upperBound returns the first index i in sorted s with less(v, s[i]),
// i.e. the std::upper_bound insertion point for v.
func upperBound[T any](s []T, v T, less func(x, y T) bool) int {
	return sort.Search(len(s), func(i int) bool { return less(v, s[i]) })
}

// seqMerge is the sequential stable merge of sorted a and b into dst.
func seqMerge[T any](dst, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// InplaceMerge merges the two consecutive sorted ranges s[:mid] and s[mid:]
// into a single sorted range (std::inplace_merge). Like libstdc++'s
// implementation, it uses a temporary buffer.
func InplaceMerge[T any](p Policy, s []T, mid int, less func(x, y T) bool) {
	if mid < 0 || mid > len(s) {
		panic("core.InplaceMerge: mid out of range")
	}
	if mid == 0 || mid == len(s) {
		return
	}
	tmp := make([]T, len(s))
	Merge(p, tmp, s[:mid], s[mid:], less)
	Copy(p, s, tmp)
}

// PartialSort rearranges s so that its first k elements are the k smallest
// in ascending order (std::partial_sort). The remainder is left in an
// unspecified order.
func PartialSort[T any](p Policy, s []T, k int, less func(a, b T) bool) {
	if k < 0 || k > len(s) {
		panic("core.PartialSort: k out of range")
	}
	if k == 0 {
		return
	}
	NthElement(p, s, k-1, less)
	SortFunc(p, s[:k], less)
}

// PartialSortCopy copies the min(len(dst), len(src)) smallest elements of
// src into dst in ascending order and returns that count
// (std::partial_sort_copy).
func PartialSortCopy[T any](p Policy, dst, src []T, less func(a, b T) bool) int {
	k := min(len(dst), len(src))
	if k == 0 {
		return 0
	}
	tmp := make([]T, len(src))
	Copy(p, tmp, src)
	PartialSort(p, tmp, k, less)
	Copy(p, dst[:k], tmp[:k])
	return k
}

// NthElement rearranges s so that s[k] holds the element that would be
// there if s were fully sorted, with everything before it no greater and
// everything after no smaller (std::nth_element). It is a quickselect whose
// partition step runs through the parallel compaction machinery.
func NthElement[T any](p Policy, s []T, k int, less func(a, b T) bool) {
	if k < 0 || k >= len(s) {
		panic("core.NthElement: k out of range")
	}
	for len(s) > 1 {
		if len(s) <= sortLeafSize || !p.parallel(len(s)) {
			slices.SortFunc(s, lessToCmp(less))
			return
		}
		pivot := medianOfThree(s, less)
		lt := make([]T, 0, len(s))
		eq := make([]T, 0, len(s))
		gt := make([]T, 0, len(s))
		nlt := CopyIf(p, lt, s, func(v T) bool { return less(v, pivot) })
		neq := CopyIf(p, eq, s, func(v T) bool { return !less(v, pivot) && !less(pivot, v) })
		ngt := CopyIf(p, gt, s, func(v T) bool { return less(pivot, v) })
		Copy(p, s, lt[:nlt])
		Copy(p, s[nlt:], eq[:neq])
		Copy(p, s[nlt+neq:], gt[:ngt])
		switch {
		case k < nlt:
			s = s[:nlt]
		case k < nlt+neq:
			return // k lands inside the pivot-equal block
		default:
			s = s[nlt+neq:]
			k -= nlt + neq
		}
	}
}

// medianOfThree picks the median of the first, middle, and last element.
func medianOfThree[T any](s []T, less func(a, b T) bool) T {
	a, b, c := s[0], s[len(s)/2], s[len(s)-1]
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// IsHeapUntil returns the length of the longest prefix of s that forms a
// binary max-heap under less (std::is_heap_until).
func IsHeapUntil[T any](p Policy, s []T, less func(a, b T) bool) int {
	// Element i violates the heap property if it is greater than its
	// parent. The first violating child bounds the heap prefix.
	n := len(s)
	if n < 2 {
		return n
	}
	i := findFirst(p, n-1, func(lo, hi int) int {
		for c := lo + 1; c <= hi; c++ {
			if less(s[(c-1)/2], s[c]) {
				return c - 1
			}
		}
		return -1
	})
	if i < 0 {
		return n
	}
	return i + 1
}

// IsHeap reports whether s forms a binary max-heap under less
// (std::is_heap).
func IsHeap[T any](p Policy, s []T, less func(a, b T) bool) bool {
	return IsHeapUntil(p, s, less) == len(s)
}
