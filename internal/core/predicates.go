package core

// AnyOf reports whether pred holds for at least one element of s
// (std::any_of). The parallel version exits early on the first witness.
func AnyOf[T any](p Policy, s []T, pred func(T) bool) bool {
	return FindIf(p, s, pred) >= 0
}

// AllOf reports whether pred holds for every element of s (std::all_of).
// It is vacuously true for an empty slice.
func AllOf[T any](p Policy, s []T, pred func(T) bool) bool {
	return FindIfNot(p, s, pred) < 0
}

// NoneOf reports whether pred holds for no element of s (std::none_of).
func NoneOf[T any](p Policy, s []T, pred func(T) bool) bool {
	return FindIf(p, s, pred) < 0
}

// Count returns the number of elements of s equal to v (std::count).
func Count[T comparable](p Policy, s []T, v T) int {
	return CountIf(p, s, func(e T) bool { return e == v })
}

// CountIf returns the number of elements of s satisfying pred
// (std::count_if). Per-chunk partial counts are combined in chunk order,
// so the result is deterministic.
func CountIf[T any](p Policy, s []T, pred func(T) bool) int {
	n := len(s)
	if !p.parallel(n) {
		c := 0
		for _, e := range s {
			if pred(e) {
				c++
			}
		}
		return c
	}
	return ReduceChunks(p, n, 0, addInt, matchCount[T]{s, pred})
}

// addInt combines per-chunk counts and compaction offsets.
func addInt(a, b int) int { return a + b }

// matchCount counts the elements satisfying pred: the chunk fold of
// CountIf and phase 1 of CopyIf.
type matchCount[T any] struct {
	src  []T
	pred func(T) bool
}

func (f matchCount[T]) Fold(lo, hi int) int {
	c := 0
	for _, e := range f.src[lo:hi] {
		if f.pred(e) {
			c++
		}
	}
	return c
}

// Mismatch returns the first index at which a and b differ, or -1 if one is
// a prefix of the other over min(len(a), len(b)) elements (std::mismatch).
func Mismatch[T comparable](p Policy, a, b []T) int {
	return findFirst(p, min(len(a), len(b)), func(lo, hi int) int {
		x, y := a[lo:hi], b[lo:hi]
		y = y[:len(x)]
		for i, e := range x {
			if e != y[i] {
				return lo + i
			}
		}
		return -1
	})
}

// MismatchFunc is Mismatch with an explicit equality predicate.
func MismatchFunc[T any](p Policy, a, b []T, eq func(x, y T) bool) int {
	return findFirst(p, min(len(a), len(b)), func(lo, hi int) int {
		x, y := a[lo:hi], b[lo:hi]
		y = y[:len(x)]
		for i, e := range x {
			if !eq(e, y[i]) {
				return lo + i
			}
		}
		return -1
	})
}

// Equal reports whether a and b have the same length and equal elements
// (std::equal on equally-sized ranges).
func Equal[T comparable](p Policy, a, b []T) bool {
	return len(a) == len(b) && Mismatch(p, a, b) < 0
}

// EqualFunc is Equal with an explicit equality predicate.
func EqualFunc[T any](p Policy, a, b []T, eq func(x, y T) bool) bool {
	return len(a) == len(b) && MismatchFunc(p, a, b, eq) < 0
}

// LexicographicalCompare reports whether a is lexicographically less than b
// (std::lexicographical_compare).
func LexicographicalCompare[T any](p Policy, a, b []T, less func(x, y T) bool) bool {
	i := findFirst(p, min(len(a), len(b)), func(lo, hi int) int {
		x, y := a[lo:hi], b[lo:hi]
		y = y[:len(x)]
		for i, e := range x {
			if less(e, y[i]) || less(y[i], e) {
				return lo + i
			}
		}
		return -1
	})
	if i >= 0 {
		return less(a[i], b[i])
	}
	return len(a) < len(b)
}

// IsSortedUntil returns the length of the longest sorted prefix of s under
// less (std::is_sorted_until, returned as a count rather than an iterator).
func IsSortedUntil[T any](p Policy, s []T, less func(a, b T) bool) int {
	i := AdjacentFind(p, s, func(a, b T) bool { return less(b, a) })
	if i < 0 {
		return len(s)
	}
	return i + 1
}

// IsSorted reports whether s is sorted under less (std::is_sorted).
func IsSorted[T any](p Policy, s []T, less func(a, b T) bool) bool {
	return IsSortedUntil(p, s, less) == len(s)
}
