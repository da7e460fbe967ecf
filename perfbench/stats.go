package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of timings in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// medianOf is the median of plain values.
func medianOf(vs []float64) float64 { return samples(vs).median() }

// tail returns the highest of p99.9, p99, p90 and p50 that has at least ten
// samples beyond it, with its label — the tail a sample count can support.
func (s samples) tail() (float64, string) {
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(len(s))*(1-p.q) >= 10 {
			return s.quantile(p.q), p.label
		}
	}
	return s.median(), "p50"
}

// summary formats median and supported tail in the given unit scale.
func (s samples) summary(scale float64, unit string) string {
	t, label := s.tail()
	return fmt.Sprintf("p50 %.4g %s, %s %.4g %s, n=%d", s.median()*scale, unit, label, t*scale, unit, len(s))
}

// geomean returns the geometric mean of positive values (0 if any is not).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
