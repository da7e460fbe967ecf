package core

// The parallel scans are ScanChunks, the textbook two-phase prefix, which
// performs ~2x the work of the sequential scan. That is why the paper's
// X::inclusive_scan only pays off once the input exceeds the last-level
// cache (Fig. 5).

// InclusiveScan writes the inclusive prefix combination of src into dst
// using op (std::inclusive_scan): dst[i] = src[0] op ... op src[i].
// dst must have the same length as src; dst may be src itself for an
// in-place scan. op must be associative.
func InclusiveScan[T any](p Policy, dst, src []T, op func(a, b T) T) {
	if len(dst) != len(src) {
		panic("core.InclusiveScan: length mismatch")
	}
	if len(src) == 0 {
		return
	}
	s := inclusiveElements[T]{elementFold[T]{src, op}, dst}
	var none T
	if !p.parallel(len(src)) {
		s.Rescan(0, len(src), none, false)
		return
	}
	ScanChunks(p, len(src), none, false, op, s)
}

// inclusiveElements rescans a chunk of InclusiveScan from its carry.
type inclusiveElements[T any] struct {
	elementFold[T]
	dst []T
}

func (inclusiveElements[T]) Reserve(T) {}

func (s inclusiveElements[T]) Rescan(lo, hi int, carry T, hasCarry bool) {
	src, dst := s.src[lo:hi], s.dst[lo:hi]
	dst = dst[:len(src)]
	acc := src[0]
	if hasCarry {
		acc = s.op(carry, acc)
	}
	dst[0] = acc
	for i := 1; i < len(src); i++ {
		acc = s.op(acc, src[i])
		dst[i] = acc
	}
}

// InclusiveSum is InclusiveScan with addition, the default
// std::inclusive_scan the paper benchmarks.
func InclusiveSum[T Number](p Policy, dst, src []T) {
	InclusiveScan(p, dst, src, plus[T])
}

// TransformInclusiveScan writes the inclusive prefix combination of
// transform(src[i]) into dst (std::transform_inclusive_scan).
func TransformInclusiveScan[T, U any](p Policy, dst []U, src []T, op func(a, b U) U, transform func(T) U) {
	if len(dst) != len(src) {
		panic("core.TransformInclusiveScan: length mismatch")
	}
	n := len(src)
	if n == 0 {
		return
	}
	if !p.parallel(n) {
		acc := transform(src[0])
		dst[0] = acc
		for i := 1; i < n; i++ {
			acc = op(acc, transform(src[i]))
			dst[i] = acc
		}
		return
	}
	var none U
	ScanChunks(p, n, none, false, op, inclusiveScan[T, U]{transformFold[T, U]{src, op, transform}, dst})
}

// inclusiveScan rescans a chunk of TransformInclusiveScan from its carry.
type inclusiveScan[T, U any] struct {
	transformFold[T, U]
	dst []U
}

func (inclusiveScan[T, U]) Reserve(U) {}

func (s inclusiveScan[T, U]) Rescan(lo, hi int, carry U, hasCarry bool) {
	acc := s.transform(s.src[lo])
	if hasCarry {
		acc = s.op(carry, acc)
	}
	s.dst[lo] = acc
	for i := lo + 1; i < hi; i++ {
		acc = s.op(acc, s.transform(s.src[i]))
		s.dst[i] = acc
	}
}

// ExclusiveScan writes the exclusive prefix combination of src into dst
// starting from init (std::exclusive_scan): dst[i] = init op src[0] op ...
// op src[i-1]. dst may be src itself.
func ExclusiveScan[T any](p Policy, dst, src []T, init T, op func(a, b T) T) {
	if len(dst) != len(src) {
		panic("core.ExclusiveScan: length mismatch")
	}
	if len(src) == 0 {
		return
	}
	s := exclusiveElements[T]{elementFold[T]{src, op}, dst}
	if !p.parallel(len(src)) {
		s.Rescan(0, len(src), init, true)
		return
	}
	ScanChunks(p, len(src), init, true, op, s)
}

// exclusiveElements rescans a chunk of ExclusiveScan from its carry, which
// always exists: the scan's init is the carry-in. It reads each element
// before it writes the output in its place, so dst may alias src.
type exclusiveElements[T any] struct {
	elementFold[T]
	dst []T
}

func (exclusiveElements[T]) Reserve(T) {}

func (s exclusiveElements[T]) Rescan(lo, hi int, carry T, _ bool) {
	src, dst := s.src[lo:hi], s.dst[lo:hi]
	dst = dst[:len(src)]
	acc := carry
	for i, v := range src {
		dst[i] = acc
		acc = s.op(acc, v)
	}
}

// TransformExclusiveScan writes the exclusive prefix combination of
// transform(src[i]) into dst starting from init
// (std::transform_exclusive_scan).
func TransformExclusiveScan[T, U any](p Policy, dst []U, src []T, init U, op func(a, b U) U, transform func(T) U) {
	if len(dst) != len(src) {
		panic("core.TransformExclusiveScan: length mismatch")
	}
	n := len(src)
	if n == 0 {
		return
	}
	if !p.parallel(n) {
		acc := init
		for i := 0; i < n; i++ {
			next := op(acc, transform(src[i]))
			dst[i] = acc
			acc = next
		}
		return
	}
	ScanChunks(p, n, init, true, op, exclusiveScan[T, U]{transformFold[T, U]{src, op, transform}, dst})
}

// exclusiveScan rescans a chunk of TransformExclusiveScan from its carry,
// which always exists: the scan's init is the carry-in.
type exclusiveScan[T, U any] struct {
	transformFold[T, U]
	dst []U
}

func (exclusiveScan[T, U]) Reserve(U) {}

func (s exclusiveScan[T, U]) Rescan(lo, hi int, carry U, _ bool) {
	acc := carry
	for i := lo; i < hi; i++ {
		next := s.op(acc, s.transform(s.src[i]))
		s.dst[i] = acc
		acc = next
	}
}

// AdjacentDifference writes dst[0] = src[0] and dst[i] = op(src[i],
// src[i-1]) for i > 0 (std::adjacent_difference). dst must have the same
// length as src. If dst aliases src, the scan runs sequentially, since the
// parallel version would race on neighbouring chunk boundaries.
func AdjacentDifference[T any](p Policy, dst, src []T, op func(cur, prev T) T) {
	if len(dst) != len(src) {
		panic("core.AdjacentDifference: length mismatch")
	}
	n := len(src)
	if n == 0 {
		return
	}
	aliased := &dst[0] == &src[0]
	if aliased || !p.parallel(n) {
		prev := src[0]
		dst[0] = prev
		for i := 1; i < n; i++ {
			cur := src[i]
			dst[i] = op(cur, prev)
			prev = cur
		}
		return
	}
	p.ParallelFor(n, func(_, lo, hi int) {
		if lo == 0 {
			dst[0] = src[0]
			lo = 1
		}
		for i := lo; i < hi; i++ {
			dst[i] = op(src[i], src[i-1])
		}
	})
}
