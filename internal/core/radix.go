package core

import (
	"math"
	"slices"
)

// radixMinLen is the length below which sortFloat64s leaves the work to
// slices.Sort: a radix level costs two 256-entry tables whatever the input
// size, which a comparison sort of a few hundred elements does not.
const radixMinLen = 256

// radixInsertionMax is the bucket size at or below which the radix sort
// finishes a bucket by insertion sort instead of another level.
const radixInsertionMax = 64

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
// slices.Sort, by in-place most-significant-digit radix sort (American
// flag sort, McIlroy, Bostic and McIlroy 1993) on the bytes of floatKey.
// It allocates nothing: each level counts one key byte, permutes s in
// place by cycle-leader swaps and recurses into each bucket.
func sortFloat64s(s []float64) {
	if len(s) < radixMinLen {
		slices.Sort(s)
		return
	}
	var count [256]int
	nans := 0
	for _, v := range s {
		if v != v {
			nans++
		}
		count[floatKey(v)>>56]++
	}
	if nans > 0 {
		// Move the NaNs to the front and sort the rest.
		k := 0
		for i, v := range s {
			if v != v {
				s[i], s[k] = s[k], v
				k++
			}
		}
		sortFloat64s(s[nans:])
		return
	}
	radixLevel(s, 56, &count)
}

// radixLevel sorts s, which holds no NaN, by the key bytes at shift and
// below, given count, the histogram of the key byte at shift, which it
// overwrites.
func radixLevel(s []float64, shift uint, count *[256]int) {
	for count[byte(floatKey(s[0])>>shift)] == len(s) {
		// Every key shares this byte: go one byte down without permuting.
		if shift == 0 {
			return
		}
		shift -= 8
		*count = [256]int{}
		for _, v := range s {
			count[byte(floatKey(v)>>shift)]++
		}
	}
	// next[b] is where bucket b's next unplaced element goes; count
	// becomes the buckets' ends.
	var next [256]int
	sum := 0
	for b, c := range count {
		next[b] = sum
		sum += c
		count[b] = sum
	}
	for b := range next {
		for next[b] < count[b] {
			// Carry s[next[b]] to its bucket, taking the element there,
			// until the one carried belongs in bucket b.
			v := s[next[b]]
			for d := byte(floatKey(v) >> shift); int(d) != b; d = byte(floatKey(v) >> shift) {
				v, s[next[d]] = s[next[d]], v
				next[d]++
			}
			s[next[b]] = v
			next[b]++
		}
	}
	if shift == 0 {
		return
	}
	lo := 0
	var sub [256]int
	for _, hi := range count {
		if n := hi - lo; n > radixInsertionMax {
			sub = [256]int{}
			for _, v := range s[lo:hi] {
				sub[byte(floatKey(v)>>(shift-8))]++
			}
			radixLevel(s[lo:hi], shift-8, &sub)
		} else if n > 1 {
			insertionSortFloats(s[lo:hi])
		}
		lo = hi
	}
}

// insertionSortFloats sorts a short slice holding no NaN.
func insertionSortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for ; j > 0 && v < s[j-1]; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}
