package core

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"sync"

	"pstlbench/internal/exec"
)

// sortLeafSize is the input size below which the sorts and the parallel
// merge run sequentially, so that each task sorts or merges thousands of
// elements and its dispatch cost stays a small share of the work. It plays
// the part of the TBB and GNU runtimes' sequential fallback, which the
// paper observes below about 2^9 elements, at a higher cut of 2^12.
const sortLeafSize = 1 << 12

// Sort sorts s in ascending order (std::sort with execution policy). The
// parallel implementation is the multiway mergesort of GNU's parallel
// mode, the schedule the simulator models for that backend: one unstable
// sequential leaf sort per worker into a scratch buffer reused across
// calls, then one pass in which every worker merges its exact share of all
// the runs back into s. Like std::sort on a template, the comparison is
// compiled into the leaf sort and the merge loop rather than called
// through a function value. The sequential sort, which is also each
// parallel leaf, is a least-significant-digit radix sort through a cached
// scratch buffer for []float64 and slices.Sort for every other type. NaNs
// sort first, as under cmp.Less; the order of -0 and +0, which compare
// equal, is unspecified.
func Sort[T cmp.Ordered](p Policy, s []T) {
	if !p.parallel(len(s)) || len(s) <= sortLeafSize {
		sortOrdered(s)
		return
	}
	parallelSort(p, s, orderedKernels[T]{})
}

// sortOrdered is the ordered sequential sort: sortFloat64s for []float64,
// the element type every timed sort uses, and slices.Sort otherwise.
func sortOrdered[T cmp.Ordered](s []T) {
	if f, ok := any(s).([]float64); ok {
		sortFloat64s(f)
		return
	}
	slices.Sort(s)
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
// (std::stable_sort). The parallel mergesort is naturally stable, since
// its merge takes equal elements from earlier runs first; only the leaf
// sort differs from SortFunc.
func StableSort[T any](p Policy, s []T, less func(a, b T) bool) {
	if !p.parallel(len(s)) || len(s) <= sortLeafSize {
		slices.SortStableFunc(s, lessToCmp(less))
		return
	}
	parallelSort(p, s, lessKernels[T]{less, true})
}

// sortKernels is the element-level work under the parallel mergesort and
// merge. They call a kernel once per leaf, merge block or split point, so
// the indirect call is amortised over thousands of elements while the
// per-element comparison lives inside the kernel.
type sortKernels[T any] interface {
	leafInto(dst, src []T)         // sequential sort of src's elements into dst; src may be permuted
	merge(dst, a, b []T)           // sequential stable merge of sorted a and b
	mergeRuns(dst []T, runs [][]T) // sequential merge of sorted runs, ties from earlier runs first
	lowerBound(s []T, v T) int     // first i with !(s[i] < v)
	upperBound(s []T, v T) int     // first i with v < s[i]
}

// orderedKernels compare with cmp.Less inline. They carry no state, so
// using them allocates nothing.
type orderedKernels[T cmp.Ordered] struct{}

func (orderedKernels[T]) leafInto(dst, src []T) {
	if d, ok := any(dst).([]float64); ok {
		leafFloat64s(d, any(src).([]float64))
		return
	}
	copy(dst, src)
	slices.Sort(dst)
}

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

func (k orderedKernels[T]) mergeRuns(dst []T, runs [][]T) {
	mergeRunsBy(dst, runs, cmp.Less[T], k.merge)
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

func (k lessKernels[T]) leafInto(dst, src []T) {
	copy(dst, src)
	if k.stable {
		slices.SortStableFunc(dst, lessToCmp(k.less))
	} else {
		slices.SortFunc(dst, lessToCmp(k.less))
	}
}

func (k lessKernels[T]) merge(dst, a, b []T) {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		if k.less(b[j], a[i]) {
			dst[n] = b[j]
			j++
		} else {
			dst[n] = a[i]
			i++
		}
		n++
	}
	n += copy(dst[n:], a[i:])
	copy(dst[n:], b[j:])
}

func (k lessKernels[T]) mergeRuns(dst []T, runs [][]T) { mergeRunsBy(dst, runs, k.less, k.merge) }

func (k lessKernels[T]) lowerBound(s []T, v T) int {
	return sort.Search(len(s), func(i int) bool { return !k.less(s[i], v) })
}

func (k lessKernels[T]) upperBound(s []T, v T) int {
	return sort.Search(len(s), func(i int) bool { return k.less(v, s[i]) })
}

// mergeRunsBy merges sorted runs into dst. While more than two runs are
// left it scans their heads for the least, dropping each run as it
// empties, at len(runs)-1 comparisons per element; the last two go to the
// kernel's two-way merge2. Ties are taken from the earlier run.
func mergeRunsBy[T any](dst []T, runs [][]T, less func(a, b T) bool, merge2 func(dst, a, b []T)) {
	runs = slices.DeleteFunc(runs, func(r []T) bool { return len(r) == 0 })
	for len(runs) > 2 {
		b := 0
		for m := 1; m < len(runs); m++ {
			if less(runs[m][0], runs[b][0]) {
				b = m
			}
		}
		dst[0] = runs[b][0]
		dst = dst[1:]
		if runs[b] = runs[b][1:]; len(runs[b]) == 0 {
			runs = slices.Delete(runs, b, b+1)
		}
	}
	switch len(runs) {
	case 2:
		merge2(dst, runs[0], runs[1])
	case 1:
		copy(dst, runs[0])
	}
}

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

// parallelSort sorts s, which the caller has judged large enough to
// parallelise, by multiway mergesort. The static split cuts s into one run
// per worker; each run is leaf-sorted from s into its part of a cached
// scratch buffer, and mergeParallel then merges the runs straight back
// into s. Equal elements keep run order, which makes the sort stable when
// the leaf sort is.
func parallelSort[T any, K sortKernels[T]](p Policy, s []T, k K) {
	split := exec.Static.Chunks(len(s), p.workers())
	cache := scratchFor[T]()
	buf := getScratch[T](cache, len(s))
	defer putScratch(cache, buf, len(s))
	tmp := (*buf)[:len(s)]
	runs := make([][]T, split.Len())
	for m := range runs {
		r := split.At(m)
		runs[m] = tmp[r.Lo:r.Hi]
	}
	p.forEachChunk(len(runs), func(m int) {
		r := split.At(m)
		k.leafInto(runs[m], s[r.Lo:r.Hi])
	})
	if p.Canceled() {
		return // the result is discarded by contract
	}
	defer refillOnPanic(s, tmp)
	mergeParallel(p, s, runs, k)
}

// refillOnPanic, deferred before a merge pass overwrites s from its copy
// tmp, refills s from tmp if less panics, so that s still holds the
// input's elements, and re-raises the panic.
func refillOnPanic[T any](s, tmp []T) {
	if r := recover(); r != nil {
		copy(s, tmp)
		panic(r)
	}
}

// mergeParallel merges the sorted runs into dst, whose length is the sum
// of theirs and which overlaps none of them. The static split cuts dst into
// one part per worker. Output part q then merges its share of every run,
// and all parts run in one parallel pass. The shares come from selectRank,
// so the parts are exact and disjoint, and equal elements keep run order.
func mergeParallel[T any, K sortKernels[T]](p Policy, dst []T, runs [][]T, k K) {
	out := exec.Static.Chunks(len(dst), p.workers())
	parts, nr := out.Len(), len(runs)
	// Row q of bounds holds where output part q starts in every run, row
	// parts where the runs end. Choosing the parts-1 inner rows is the
	// short sequential section before the parallel pass.
	bounds := make([]int, (parts+3)*nr)
	hi, pos := bounds[(parts+1)*nr:(parts+2)*nr], bounds[(parts+2)*nr:]
	for m, r := range runs {
		bounds[parts*nr+m] = len(r)
	}
	for q := 1; q < parts; q++ {
		selectRank(runs, out.At(q).Lo, bounds[q*nr:(q+1)*nr], hi, pos, k)
	}
	heads := make([][]T, parts*nr)
	p.forEachChunk(parts, func(q int) {
		from, to := bounds[q*nr:(q+1)*nr], bounds[(q+1)*nr:(q+2)*nr]
		h := heads[q*nr : (q+1)*nr]
		for m := range h {
			h[m] = runs[m][from[m]:to[m]]
		}
		r := out.At(q)
		k.mergeRuns(dst[r.Lo:r.Hi], h)
	})
}

// selectRank sets off[m], for each of the sorted runs[m], to the number of
// elements of run m among the first r of their stable merge, which orders
// by value, then by run index, then by position in the run.
// lo (which is off) and hi bracket the answer in every run; a pivot, the
// middle of the widest bracket, is ranked by one binary search per other
// run, and its positions pos become the new lower bounds if fewer than r
// elements precede it, or the new upper bounds otherwise. The pivot stays
// inside every bracket, so the searches are confined to them. At two runs
// this is the co-rank search of a parallel two-way merge.
func selectRank[T any, K sortKernels[T]](runs [][]T, r int, off, hi, pos []int, k K) {
	lo := off
	for m := range lo {
		lo[m], hi[m] = 0, len(runs[m])
	}
	for {
		j, width := 0, 0
		for m := range lo {
			if hi[m]-lo[m] > width {
				j, width = m, hi[m]-lo[m]
			}
		}
		if width == 0 {
			return // every bracket has closed on the answer
		}
		c := lo[j] + width/2
		v := runs[j][c]
		rank := 0
		for m := range pos {
			w := runs[m][lo[m]:hi[m]]
			switch {
			case m < j: // equal elements of earlier runs come first
				pos[m] = lo[m] + k.upperBound(w, v)
			case m > j:
				pos[m] = lo[m] + k.lowerBound(w, v)
			default:
				pos[m] = c
			}
			rank += pos[m]
		}
		switch {
		case rank == r: // the pivot is the first element past the split
			copy(lo, pos)
			return
		case rank < r:
			copy(lo, pos)
			lo[j] = c + 1
		default:
			copy(hi, pos)
		}
	}
}

// scratchCaches maps each element type to the *sync.Pool (of *[]T) that
// reuses the n-element scratch buffers of the parallel sorts, the float
// radix sort, InplaceMerge, NthElement and PartialSortCopy across calls,
// so a call neither allocates one nor leaves one for the collector.
var scratchCaches sync.Map

func scratchFor[T any]() *sync.Pool {
	t := reflect.TypeFor[T]()
	if c, ok := scratchCaches.Load(t); ok {
		return c.(*sync.Pool)
	}
	c, _ := scratchCaches.LoadOrStore(t, new(sync.Pool))
	return c.(*sync.Pool)
}

// getScratch returns a cached buffer of at least n elements; a cached one
// that is too short is dropped for a new one.
func getScratch[T any](c *sync.Pool, n int) *[]T {
	if b, ok := c.Get().(*[]T); ok && len(*b) >= n {
		return b
	}
	b := make([]T, n)
	return &b
}

// putScratch clears the first n elements of b, the ones the sort used, so
// the cache keeps no caller data reachable, and returns b to the cache.
func putScratch[T any](c *sync.Pool, b *[]T, n int) {
	clear((*b)[:n])
	c.Put(b)
}

// Merge merges the sorted slices a and b into dst (std::merge). dst must
// have length len(a)+len(b) and must not overlap a or b. The merge is
// stable: equal elements are taken from a first. In parallel it is the
// two-run case of the sort's merge pass.
func Merge[T any](p Policy, dst, a, b []T, less func(x, y T) bool) {
	if len(dst) != len(a)+len(b) {
		panic("core.Merge: dst length must be len(a)+len(b)")
	}
	k := lessKernels[T]{less: less}
	if !p.parallel(len(dst)) || len(dst) <= sortLeafSize {
		k.merge(dst, a, b)
		return
	}
	mergeParallel(p, dst, [][]T{a, b}, k)
}

// InplaceMerge merges the two consecutive sorted ranges s[:mid] and s[mid:]
// into a single sorted range (std::inplace_merge). Like libstdc++'s
// implementation, it uses a temporary buffer: it copies s into the sorts'
// cached scratch and merges the two halves from there back into s.
func InplaceMerge[T any](p Policy, s []T, mid int, less func(x, y T) bool) {
	if mid < 0 || mid > len(s) {
		panic("core.InplaceMerge: mid out of range")
	}
	if mid == 0 || mid == len(s) {
		return
	}
	cache := scratchFor[T]()
	buf := getScratch[T](cache, len(s))
	defer putScratch(cache, buf, len(s))
	tmp := (*buf)[:len(s)]
	Copy(p, tmp, s)
	if p.Canceled() {
		return // the result is discarded by contract
	}
	defer refillOnPanic(s, tmp)
	Merge(p, s, tmp[:mid], tmp[mid:], less)
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
// (std::partial_sort_copy). src is partially sorted in a copy taken from
// the sorts' cached scratch.
func PartialSortCopy[T any](p Policy, dst, src []T, less func(a, b T) bool) int {
	k := min(len(dst), len(src))
	if k == 0 {
		return 0
	}
	cache := scratchFor[T]()
	buf := getScratch[T](cache, len(src))
	defer putScratch(cache, buf, len(src))
	tmp := (*buf)[:len(src)]
	Copy(p, tmp, src)
	PartialSort(p, tmp, k, less)
	Copy(p, dst[:k], tmp[:k])
	return k
}

// NthElement rearranges s so that s[k] holds the element that would be
// there if s were fully sorted, with everything before it no greater and
// everything after no smaller (std::nth_element). It is a quickselect whose
// partition step runs through the parallel compaction machinery: each
// round compacts the elements less than, equal to and greater than the
// pivot into consecutive parts of one buffer from the sorts' cached
// scratch, then copies the buffer back into s.
func NthElement[T any](p Policy, s []T, k int, less func(a, b T) bool) {
	if k < 0 || k >= len(s) {
		panic("core.NthElement: k out of range")
	}
	var cache *sync.Pool
	var buf *[]T
	for len(s) > 1 {
		if len(s) <= sortLeafSize || !p.parallel(len(s)) {
			slices.SortFunc(s, lessToCmp(less))
			return
		}
		if buf == nil {
			cache = scratchFor[T]()
			buf = getScratch[T](cache, len(s))
			defer putScratch(cache, buf, len(s))
		}
		part := (*buf)[:len(s)]
		pivot := medianOfThree(s, less)
		nlt := CopyIf(p, part, s, func(v T) bool { return less(v, pivot) })
		neq := CopyIf(p, part[nlt:], s, func(v T) bool { return !less(v, pivot) && !less(pivot, v) })
		ngt := CopyIf(p, part[nlt+neq:], s, func(v T) bool { return less(pivot, v) })
		if p.Canceled() {
			// Skipped chunks make the counts short: a round could make no
			// progress. The result is discarded by contract.
			return
		}
		Copy(p, s, part[:nlt+neq+ngt])
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
