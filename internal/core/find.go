package core

import (
	"slices"
	"sync/atomic"
)

// findBlock is the number of candidate indices a worker examines between
// checks of the shared early-exit bound. It trades cancellation latency
// against synchronization cost — the overhead the paper's X::find results
// make visible.
const findBlock = 1024

// findFirst returns the smallest index in [0, n) that first reports, or -1
// if there is none. first(lo, hi) scans the candidate indices [lo, hi) in
// order and returns the first match or -1; it is the only per-element code
// of every find-family algorithm, so the comparison is inline in it. The
// sequential path is first(0, n). In parallel mode each worker calls first
// once per findBlock-sized block of its chunk, publishes the best index
// found so far through an atomic bound and abandons blocks that can no
// longer improve it.
func findFirst(p Policy, n int, first func(lo, hi int) int) int {
	if n <= 0 {
		return -1
	}
	if !p.parallel(n) {
		return first(0, n)
	}
	var best atomic.Int64
	best.Store(int64(n))
	p.ParallelFor(n, func(_, lo, hi int) {
		for blockLo := lo; blockLo < hi; blockLo += findBlock {
			if int64(blockLo) >= best.Load() {
				return // a better match exists before this block
			}
			if i := first(blockLo, min(blockLo+findBlock, hi)); i >= 0 {
				storeMin(&best, int64(i))
				return // first match in a forward scan of the chunk
			}
		}
	})
	if got := best.Load(); got < int64(n) {
		return int(got)
	}
	return -1
}

// storeMin atomically lowers a to v if v is smaller.
func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Find returns the index of the first element of s equal to v, or -1
// (std::find).
func Find[T comparable](p Policy, s []T, v T) int {
	return findFirst(p, len(s), func(lo, hi int) int {
		for i, e := range s[lo:hi] {
			if e == v {
				return lo + i
			}
		}
		return -1
	})
}

// FindIf returns the index of the first element satisfying pred, or -1
// (std::find_if).
func FindIf[T any](p Policy, s []T, pred func(T) bool) int {
	return findFirst(p, len(s), func(lo, hi int) int {
		for i, e := range s[lo:hi] {
			if pred(e) {
				return lo + i
			}
		}
		return -1
	})
}

// FindIfNot returns the index of the first element not satisfying pred, or
// -1 (std::find_if_not).
func FindIfNot[T any](p Policy, s []T, pred func(T) bool) int {
	return findFirst(p, len(s), func(lo, hi int) int {
		for i, e := range s[lo:hi] {
			if !pred(e) {
				return lo + i
			}
		}
		return -1
	})
}

// FindFirstOf returns the index of the first element of s that equals any
// element of set, or -1 (std::find_first_of).
func FindFirstOf[T comparable](p Policy, s, set []T) int {
	if len(set) == 0 {
		return -1
	}
	return findFirst(p, len(s), func(lo, hi int) int {
		for i, e := range s[lo:hi] {
			if slices.Contains(set, e) {
				return lo + i
			}
		}
		return -1
	})
}

// AdjacentFind returns the first index i such that pred(s[i], s[i+1]), or
// -1 (std::adjacent_find).
func AdjacentFind[T any](p Policy, s []T, pred func(a, b T) bool) int {
	return findFirst(p, len(s)-1, func(lo, hi int) int {
		next := s[lo+1 : hi+1]
		for i, e := range s[lo:hi] {
			if pred(e, next[i]) {
				return lo + i
			}
		}
		return -1
	})
}

// Search returns the index of the first occurrence of sub in s, or -1
// (std::search). An empty sub matches at index 0.
func Search[T comparable](p Policy, s, sub []T) int {
	if len(sub) == 0 {
		return 0
	}
	return findFirst(p, len(s)-len(sub)+1, func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if slices.Equal(s[i:i+len(sub)], sub) {
				return i
			}
		}
		return -1
	})
}

// SearchN returns the index of the first run of count consecutive elements
// equal to v, or -1 (std::search_n). count <= 0 matches at index 0.
func SearchN[T comparable](p Policy, s []T, count int, v T) int {
	if count <= 0 {
		return 0
	}
	return findFirst(p, len(s)-count+1, func(lo, hi int) int {
	run:
		for i := lo; i < hi; i++ {
			for _, e := range s[i : i+count] {
				if e != v {
					continue run
				}
			}
			return i
		}
		return -1
	})
}

// FindEnd returns the index of the last occurrence of sub in s, or -1
// (std::find_end). An empty sub matches at index len(s).
func FindEnd[T comparable](p Policy, s, sub []T) int {
	if len(sub) == 0 {
		return len(s)
	}
	n := len(s) - len(sub) + 1
	// Search the mirrored index space so the early-exit machinery, which
	// minimizes, finds the maximal match position.
	ri := findFirst(p, n, func(lo, hi int) int {
		for ri := lo; ri < hi; ri++ {
			pos := n - 1 - ri
			if slices.Equal(s[pos:pos+len(sub)], sub) {
				return ri
			}
		}
		return -1
	})
	if ri < 0 {
		return -1
	}
	return n - 1 - ri
}
