package core

// MinElement returns the index of the first minimum element of s under
// less, or -1 for an empty slice (std::min_element).
func MinElement[T any](p Policy, s []T, less func(a, b T) bool) int {
	return extremeElement(p, s, less, false)
}

// MaxElement returns the index of the first maximum element of s under
// less, or -1 for an empty slice (std::max_element).
func MaxElement[T any](p Policy, s []T, less func(a, b T) bool) int {
	return extremeElement(p, s, less, true)
}

// extremeElement finds the first index holding the extreme value. For max,
// C++ returns the *first* of equal maxima, which the strict "is better"
// predicate preserves across chunk combination. The combination starts
// from -1, which every chunk result replaces.
func extremeElement[T any](p Policy, s []T, less func(a, b T) bool, wantMax bool) int {
	n := len(s)
	if n == 0 {
		return -1
	}
	f := extremeFold[T]{s, less, wantMax}
	if !p.parallel(n) {
		return f.Fold(0, n)
	}
	return ReduceChunks(p, n, -1, func(best, idx int) int {
		if best < 0 || f.better(s[idx], s[best]) {
			return idx
		}
		return best
	}, f)
}

// extremeFold finds the first extreme index of a range.
type extremeFold[T any] struct {
	s       []T
	less    func(a, b T) bool
	wantMax bool
}

// better reports whether a is strictly better than b.
func (f extremeFold[T]) better(a, b T) bool {
	if f.wantMax {
		return f.less(b, a)
	}
	return f.less(a, b)
}

func (f extremeFold[T]) Fold(lo, hi int) int {
	best := lo
	for i := lo + 1; i < hi; i++ {
		if f.better(f.s[i], f.s[best]) {
			best = i
		}
	}
	return best
}

// MinMaxElement returns the indices of the first minimum and the last
// maximum element of s under less, or (-1, -1) for an empty slice
// (std::minmax_element, which returns the *last* maximum).
func MinMaxElement[T any](p Policy, s []T, less func(a, b T) bool) (minIdx, maxIdx int) {
	n := len(s)
	if n == 0 {
		return -1, -1
	}
	f := minMaxFold[T]{s, less}
	var r minMax
	if !p.parallel(n) {
		r = f.Fold(0, n)
	} else {
		r = ReduceChunks(p, n, minMax{-1, -1}, f.combine, f)
	}
	return r.lo, r.hi
}

// minMax holds the first-minimum and last-maximum indices of a range.
type minMax struct{ lo, hi int }

// minMaxFold finds the minMax of a range.
type minMaxFold[T any] struct {
	s    []T
	less func(a, b T) bool
}

func (f minMaxFold[T]) Fold(lo, hi int) minMax {
	r := minMax{lo, lo}
	for i := lo + 1; i < hi; i++ {
		if f.less(f.s[i], f.s[r.lo]) {
			r.lo = i
		}
		if !f.less(f.s[i], f.s[r.hi]) { // last max: ties move forward
			r.hi = i
		}
	}
	return r
}

// combine merges the minMax of a later range into best; -1 is the empty
// start, which every range's indices replace.
func (f minMaxFold[T]) combine(best, r minMax) minMax {
	if best.lo < 0 {
		return r
	}
	if f.less(f.s[r.lo], f.s[best.lo]) {
		best.lo = r.lo
	}
	if !f.less(f.s[r.hi], f.s[best.hi]) {
		best.hi = r.hi
	}
	return best
}
