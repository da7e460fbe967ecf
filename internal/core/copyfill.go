package core

// Copy copies src into dst, possibly in parallel (std::copy). dst must be
// at least as long as src and must not overlap it.
func Copy[T any](p Policy, dst, src []T) {
	if len(dst) < len(src) {
		panic("core.Copy: dst shorter than src")
	}
	n := len(src)
	if !p.parallel(n) {
		copy(dst, src)
		return
	}
	p.ParallelFor(n, func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// CopyN copies the first n elements of src into dst (std::copy_n).
func CopyN[T any](p Policy, dst, src []T, n int) {
	if n < 0 || n > len(src) {
		panic("core.CopyN: n out of range")
	}
	Copy(p, dst, src[:n])
}

// CopyIf appends the elements of src satisfying pred to dst[:0], preserving
// their relative order as std::copy_if does, and returns the number of
// elements written. dst must have capacity for every match (len(src) always
// suffices) and must not overlap src.
//
// The parallel version is the classic three-phase stream compaction:
// per-chunk match counts, an exclusive prefix over the counts, then a
// parallel scatter of every chunk to its output offset.
func CopyIf[T any](p Policy, dst, src []T, pred func(T) bool) int {
	n := len(src)
	if !p.parallel(n) {
		w := 0
		dst = dst[:cap(dst)]
		for _, v := range src {
			if pred(v) {
				dst[w] = v
				w++
			}
		}
		return w
	}
	return ScanChunks(p, n, 0, true, addInt, copyIfScan[T]{matchCount[T]{src, pred}, dst[:cap(dst)]})
}

// copyIfScan scatters a chunk's matches of CopyIf to dst from the chunk's
// output offset.
type copyIfScan[T any] struct {
	matchCount[T]
	dst []T
}

func (s copyIfScan[T]) Reserve(total int) {
	if total > len(s.dst) {
		panic("core.CopyIf: dst capacity too small")
	}
}

func (s copyIfScan[T]) Rescan(lo, hi, w int, _ bool) {
	for _, v := range s.src[lo:hi] {
		if s.pred(v) {
			s.dst[w] = v
			w++
		}
	}
}

// RemoveCopyIf appends the elements of src that do NOT satisfy pred to
// dst[:0] and returns the number written (std::remove_copy_if).
func RemoveCopyIf[T any](p Policy, dst, src []T, pred func(T) bool) int {
	return CopyIf(p, dst, src, func(v T) bool { return !pred(v) })
}

// RemoveIf compacts s in place, keeping only elements that do not satisfy
// pred, and returns the new logical length (std::remove_if + erase). The
// relative order of the kept elements is preserved. The parallel version
// compacts into a temporary and copies back: an in-place parallel scatter
// would let one chunk overwrite elements another chunk has not read yet.
func RemoveIf[T any](p Policy, s []T, pred func(T) bool) int {
	n := len(s)
	if !p.parallel(n) {
		w := 0
		for i := 0; i < n; i++ {
			if !pred(s[i]) {
				s[w] = s[i]
				w++
			}
		}
		return w
	}
	tmp := make([]T, n)
	w := RemoveCopyIf(p, tmp, s, pred)
	Copy(p, s[:w], tmp[:w])
	return w
}

// Remove compacts s in place, dropping elements equal to v, and returns the
// new logical length (std::remove + erase).
func Remove[T comparable](p Policy, s []T, v T) int {
	return RemoveIf(p, s, func(e T) bool { return e == v })
}

// Unique compacts consecutive duplicate elements of s in place and returns
// the new logical length (std::unique + erase).
func Unique[T comparable](p Policy, s []T) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	// An element survives iff it differs from its predecessor (the first
	// always survives); expressed that way, unique is RemoveIf over
	// indices, which parallelizes with the same compaction scheme.
	if !p.parallel(n) {
		w := 1
		for i := 1; i < n; i++ {
			if s[i] != s[w-1] {
				s[w] = s[i]
				w++
			}
		}
		return w
	}
	u := &uniqueScan[T]{s: s}
	ScanChunks(p, n, 0, true, addInt, u)
	Copy(p, s, u.tmp)
	return len(u.tmp)
}

// uniqueScan compacts the elements of Unique that differ from their
// predecessor into tmp, which Reserve sizes to the survivor count.
type uniqueScan[T comparable] struct {
	s, tmp []T
}

func (u *uniqueScan[T]) keep(i int) bool { return i == 0 || u.s[i] != u.s[i-1] }

func (u *uniqueScan[T]) Fold(lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		if u.keep(i) {
			c++
		}
	}
	return c
}

func (u *uniqueScan[T]) Reserve(total int) { u.tmp = make([]T, total) }

func (u *uniqueScan[T]) Rescan(lo, hi, w int, _ bool) {
	for i := lo; i < hi; i++ {
		if u.keep(i) {
			u.tmp[w] = u.s[i]
			w++
		}
	}
}
