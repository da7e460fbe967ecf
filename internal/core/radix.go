package core

import (
	"math"
	"slices"
)

// radixMinLen is the length below which the float sorts leave the work to
// slices.Sort: a radix sort clears eight 256-entry histograms and sums one
// per pass whatever the input size, which a comparison sort of a few
// hundred elements does not. At 512 the radix sort is about 20% faster on
// integer-valued keys (four passes) and about 15% slower on full-mantissa
// ones (seven); at 1024 it wins on both by 1.5x or more.
const radixMinLen = 512

// floatKey maps a non-NaN float64 to a uint64 whose unsigned order is the
// float order: negatives have every bit flipped, so larger magnitudes come
// first, and the rest have only the sign bit set. -0 maps just below +0;
// cmp.Compare calls the two equal, so an unstable sort may order them
// either way.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortFloat64s sorts s in ascending order with NaNs first, the order of
// slices.Sort, by least-significant-digit radix sort on the bytes of
// floatKey. Its passes alternate between s and an n-element scratch taken
// from the sorts' cache, so after warm-up it allocates nothing.
func sortFloat64s(s []float64) {
	if len(s) < radixMinLen {
		slices.Sort(s)
		return
	}
	cache := scratchFor[float64]()
	buf := getScratch[float64](cache, len(s))
	if tmp := (*buf)[:len(s)]; radixSort(s, tmp) {
		copy(s, tmp)
	}
	// A float references nothing, so the scratch goes back uncleared.
	cache.Put(buf)
}

// leafFloat64s sorts the elements of src into dst, of the same length, as
// sortFloat64s orders them: the float leaf of the parallel sort, whose
// first radix pass reads the caller's run and writes its scratch run. src
// is left holding a permutation of its elements.
func leafFloat64s(dst, src []float64) {
	if len(src) < radixMinLen {
		copy(dst, src)
		slices.Sort(dst)
		return
	}
	if !radixSort(src, dst) {
		copy(dst, src)
	}
}

// radixSort sorts the elements of a in ascending order with NaNs first,
// using b, of the same length, as the other buffer, and reports whether
// the result is in b rather than a. One read pass builds the histograms of
// all eight key bytes; then every byte that not all keys share, least
// significant first, is one stable scatter pass from one buffer into the
// other. Integer-valued floats below 2^20, the keys every perfbench sort
// uses, share their low four key bytes and take four passes.
func radixSort(a, b []float64) (inB bool) {
	var count [8][256]int
	nans := 0
	for _, v := range a {
		if v != v {
			nans++
			continue
		}
		k := floatKey(v)
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	if nans > 0 {
		// Move the NaNs, which the histograms leave out, to the front.
		k := 0
		for i, v := range a {
			if v != v {
				a[i], a[k] = a[k], v
				k++
			}
		}
		if nans == len(a) {
			return false
		}
	}
	src, dst := a[nans:], b[nans:]
	first := floatKey(src[0])
	for d := range count {
		shift := uint(8 * d)
		next := &count[d]
		if next[byte(first>>shift)] == len(src) {
			continue // every key shares this byte
		}
		// The front half fills each bucket upwards from its start (next),
		// the back half downwards from its end (end), so runs of equal
		// bytes update two counters instead of one, and each half keeps
		// its order: the pass stays stable.
		var end [256]int
		sum := 0
		for x, c := range next {
			next[x] = sum
			sum += c
			end[x] = sum
		}
		lo, hi := 0, len(src)-1
		for ; lo < hi; lo, hi = lo+1, hi-1 {
			v, w := src[lo], src[hi]
			x, y := byte(floatKey(v)>>shift), byte(floatKey(w)>>shift)
			dst[next[x]] = v
			next[x]++
			end[y]--
			dst[end[y]] = w
		}
		if lo == hi {
			dst[next[byte(floatKey(src[lo])>>shift)]] = src[lo]
		}
		src, dst = dst, src
		inB = !inB
	}
	if inB {
		copy(b[:nans], a[:nans])
	}
	return inB
}
