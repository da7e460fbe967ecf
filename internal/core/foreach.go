package core

// ForEach applies fn to every element of s, possibly in parallel
// (std::for_each). fn receives a pointer so it can mutate the element in
// place, matching the paper's for_each kernel which stores its result back
// into the input array.
func ForEach[T any](p Policy, s []T, fn func(*T)) {
	n := len(s)
	if !p.parallel(n) {
		for i := range s {
			fn(&s[i])
		}
		return
	}
	p.ParallelFor(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(&s[i])
		}
	})
}

// ForEachIndex applies fn to every index/element pair of s, possibly in
// parallel. It is the index-aware variant used when the kernel depends on
// the element position.
func ForEachIndex[T any](p Policy, s []T, fn func(i int, v *T)) {
	n := len(s)
	if !p.parallel(n) {
		for i := range s {
			fn(i, &s[i])
		}
		return
	}
	p.ParallelFor(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i, &s[i])
		}
	})
}

// ForEachN applies fn to the first n elements of s (std::for_each_n) and
// returns n. It panics if n exceeds len(s) or is negative.
func ForEachN[T any](p Policy, s []T, n int, fn func(*T)) int {
	if n < 0 || n > len(s) {
		panic("core.ForEachN: n out of range")
	}
	ForEach(p, s[:n], fn)
	return n
}

// Generate assigns the result of successive gen calls to every element of s
// (std::generate). gen receives the element index so parallel generation is
// deterministic: gen must be a pure function of the index.
func Generate[T any](p Policy, s []T, gen func(i int) T) {
	ForEachIndex(p, s, func(i int, v *T) { *v = gen(i) })
}

// GenerateN assigns gen(i) to the first n elements of s (std::generate_n)
// and returns n.
func GenerateN[T any](p Policy, s []T, n int, gen func(i int) T) int {
	if n < 0 || n > len(s) {
		panic("core.GenerateN: n out of range")
	}
	Generate(p, s[:n], gen)
	return n
}

// Fill assigns v to every element of s (std::fill).
func Fill[T any](p Policy, s []T, v T) {
	if !p.parallel(len(s)) {
		fill(s, v)
		return
	}
	p.ParallelFor(len(s), func(_, lo, hi int) { fill(s[lo:hi], v) })
}

// fill stores v into every element of s.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// FillN assigns v to the first n elements of s (std::fill_n) and returns n.
func FillN[T any](p Policy, s []T, n int, v T) int {
	if n < 0 || n > len(s) {
		panic("core.FillN: n out of range")
	}
	Fill(p, s[:n], v)
	return n
}
