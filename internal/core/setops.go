package core

import "sync/atomic"

// The set algorithms operate on sorted ranges. Their outputs have
// data-dependent positions, which makes them the least parallel-friendly
// algorithms in the STL; like several of the C++ backends the paper
// surveys, this implementation parallelizes only the verification-style
// operations (Includes) and runs the merging set operations sequentially.

// Includes reports whether the sorted range a contains every element of the
// sorted range b, multiset-style (std::includes).
func Includes[T any](p Policy, a, b []T, less func(x, y T) bool) bool {
	if len(b) == 0 {
		return true
	}
	if len(a) == 0 {
		return false
	}
	if !p.parallel(len(b)) || len(b) < 4 {
		return includesSeq(a, b, less)
	}
	// Split b into chunks; each chunk must be included in the sub-range
	// of a bracketing it. Chunks verify independently: multiset
	// inclusion is NOT chunk-decomposable at equal-run boundaries, so
	// chunks are extended to cover whole equal-runs of b.
	chunks := p.Chunks(len(b))
	bounds := make([]int, chunks.Len()+1)
	for ci := 1; ci < chunks.Len(); ci++ {
		lo := chunks.At(ci).Lo
		// Move the boundary forward past the current equal-run.
		for lo < len(b) && lo > 0 && !less(b[lo-1], b[lo]) {
			lo++
		}
		bounds[ci] = lo
	}
	bounds[chunks.Len()] = len(b)
	k := lessKernels[T]{less: less}
	var failed atomic.Bool
	p.forEachChunk(chunks.Len(), func(ci int) {
		lo, hi := bounds[ci], bounds[ci+1]
		if lo >= hi {
			return
		}
		// Bracket the relevant part of a: everything >= b[lo] and
		// <= b[hi-1].
		alo := k.lowerBound(a, b[lo])
		ahi := k.upperBound(a, b[hi-1])
		if !includesSeq(a[alo:ahi], b[lo:hi], less) {
			failed.Store(true)
		}
	})
	return !failed.Load()
}

func includesSeq[T any](a, b []T, less func(x, y T) bool) bool {
	i := 0
	for _, v := range b {
		for i < len(a) && less(a[i], v) {
			i++
		}
		if i >= len(a) || less(v, a[i]) {
			return false
		}
		i++
	}
	return true
}

// SetUnion writes the sorted multiset union of a and b into dst[:0] and
// returns the number of elements written (std::set_union). dst must have
// capacity len(a)+len(b) in the worst case.
func SetUnion[T any](p Policy, dst, a, b []T, less func(x, y T) bool) int {
	_ = p // merging set operations run sequentially; see package comment
	dst = dst[:cap(dst)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case less(a[i], b[j]):
			dst[k] = a[i]
			i++
		case less(b[j], a[i]):
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			i++
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return k
}

// SetIntersection writes the sorted multiset intersection of a and b into
// dst[:0] and returns the count (std::set_intersection). dst must have
// capacity min(len(a), len(b)).
func SetIntersection[T any](p Policy, dst, a, b []T, less func(x, y T) bool) int {
	_ = p
	dst = dst[:cap(dst)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case less(a[i], b[j]):
			i++
		case less(b[j], a[i]):
			j++
		default:
			dst[k] = a[i]
			i++
			j++
			k++
		}
	}
	return k
}

// SetDifference writes the sorted multiset difference a − b into dst[:0]
// and returns the count (std::set_difference). dst must have capacity
// len(a).
func SetDifference[T any](p Policy, dst, a, b []T, less func(x, y T) bool) int {
	_ = p
	dst = dst[:cap(dst)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case less(a[i], b[j]):
			dst[k] = a[i]
			i++
			k++
		case less(b[j], a[i]):
			j++
		default:
			i++
			j++
		}
	}
	k += copy(dst[k:], a[i:])
	return k
}

// SetSymmetricDifference writes the sorted multiset symmetric difference of
// a and b into dst[:0] and returns the count
// (std::set_symmetric_difference). dst must have capacity len(a)+len(b).
func SetSymmetricDifference[T any](p Policy, dst, a, b []T, less func(x, y T) bool) int {
	_ = p
	dst = dst[:cap(dst)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case less(a[i], b[j]):
			dst[k] = a[i]
			i++
			k++
		case less(b[j], a[i]):
			dst[k] = b[j]
			j++
			k++
		default:
			i++
			j++
		}
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return k
}
