package core

// Reduce combines all elements of s with op, starting from init
// (std::reduce). op must be associative; as with std::reduce, the
// combination order is unspecified in parallel mode, but it is
// deterministic for a fixed policy: per-chunk partials are folded in chunk
// order.
func Reduce[T any](p Policy, s []T, init T, op func(a, b T) T) T {
	if !p.parallel(len(s)) {
		acc := init
		for _, e := range s {
			acc = op(acc, e)
		}
		return acc
	}
	return ReduceChunks(p, len(s), init, op, elementFold[T]{s, op})
}

// Sum returns init plus the sum of all elements of s, the common
// std::reduce(par, v.begin(), v.end()) case the paper benchmarks. It
// combines in Reduce's order with an inline +.
func Sum[T Number](p Policy, s []T, init T) T {
	if !p.parallel(len(s)) {
		acc := init
		for _, e := range s {
			acc += e
		}
		return acc
	}
	return ReduceChunks(p, len(s), init, plus[T], sumFold[T]{s})
}

// plus is addition as a combine function: the chunk combine of Sum and the
// op of InclusiveSum.
func plus[T Number](a, b T) T { return a + b }

// elementFold is the left fold of op over src[lo:hi], the chunk fold of
// Reduce and the phase-1 fold of InclusiveScan and ExclusiveScan. op is the
// only indirect call per element.
type elementFold[T any] struct {
	src []T
	op  func(a, b T) T
}

func (f elementFold[T]) Fold(lo, hi int) T {
	s := f.src[lo:hi]
	acc := s[0]
	for _, v := range s[1:] {
		acc = f.op(acc, v)
	}
	return acc
}

// sumFold is elementFold with an inline +: the chunk fold of Sum.
type sumFold[T Number] struct{ src []T }

func (f sumFold[T]) Fold(lo, hi int) T {
	s := f.src[lo:hi]
	acc := s[0]
	for _, v := range s[1:] {
		acc += v
	}
	return acc
}

// Number is the constraint for the arithmetic convenience wrappers.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// TransformReduce applies transform to every element and reduces the
// results with op starting from init (std::transform_reduce, unary form).
func TransformReduce[T, U any](p Policy, s []T, init U, op func(a, b U) U, transform func(T) U) U {
	if !p.parallel(len(s)) {
		acc := init
		for _, e := range s {
			acc = op(acc, transform(e))
		}
		return acc
	}
	return ReduceChunks(p, len(s), init, op, transformFold[T, U]{s, op, transform})
}

// transformFold is the left fold of op over transform(src[i]), the chunk
// fold of TransformReduce and the phase-1 fold of the transform scans.
type transformFold[T, U any] struct {
	src       []T
	op        func(a, b U) U
	transform func(T) U
}

func (f transformFold[T, U]) Fold(lo, hi int) U {
	acc := f.transform(f.src[lo])
	for i := lo + 1; i < hi; i++ {
		acc = f.op(acc, f.transform(f.src[i]))
	}
	return acc
}

// TransformReduceBinary applies transform pairwise to a and b and reduces
// with op starting from init (std::transform_reduce, binary form — the
// parallel inner product). a and b must have equal length.
func TransformReduceBinary[T, V, U any](p Policy, a []T, b []V, init U, op func(x, y U) U, transform func(T, V) U) U {
	if len(a) != len(b) {
		panic("core.TransformReduceBinary: length mismatch")
	}
	if !p.parallel(len(a)) {
		acc := init
		for i := range a {
			acc = op(acc, transform(a[i], b[i]))
		}
		return acc
	}
	return ReduceChunks(p, len(a), init, op, binaryFold[T, V, U]{a, b, op, transform})
}

// binaryFold is the left fold of op over transform(a[i], b[i]).
type binaryFold[T, V, U any] struct {
	a         []T
	b         []V
	op        func(x, y U) U
	transform func(T, V) U
}

func (f binaryFold[T, V, U]) Fold(lo, hi int) U {
	acc := f.transform(f.a[lo], f.b[lo])
	for i := lo + 1; i < hi; i++ {
		acc = f.op(acc, f.transform(f.a[i], f.b[i]))
	}
	return acc
}
