package flow

import (
	"fmt"

	"pstlbench/internal/core"
	"pstlbench/internal/pipeline"
)

// OpSpec selects the windowed operator a stream applies to each closed
// window. Every operator returns an integer-valued float64 checksum, so
// the parallel result is bit-exact against the sequential audit oracle in
// any chunking or reduction order (integer sums are exact below 2^53).
type OpSpec struct {
	// Kind is one of OpKinds: reduce, scan, sort, topk, wordcount,
	// montecarlo.
	Kind string
}

const (
	// topK is the topk operator's depth.
	topK = 8
	// mcSamples is the montecarlo operator's pseudo-random sample count
	// per event. It scales the per-event compute cost, which the WFQ
	// admission cost accounts for via jobCost.
	mcSamples = 64
)

// OpKinds lists the windowed operators in stable order.
func OpKinds() []string {
	return []string{"reduce", "scan", "sort", "topk", "wordcount", "montecarlo"}
}

// withDefaults validates the spec and fills defaults.
func (o OpSpec) withDefaults() (OpSpec, error) {
	ok := false
	for _, k := range OpKinds() {
		if k == o.Kind {
			ok = true
		}
	}
	if !ok {
		return o, fmt.Errorf("flow: unknown op %q (want one of %v)", o.Kind, OpKinds())
	}
	return o, nil
}

// jobCost is the WFQ cost estimate for a window of n events — element
// count for the element-sweep operators, n×mcSamples for montecarlo, whose
// service time scales with the sample loop, not the event count.
func (o OpSpec) jobCost(n int) int {
	c := n
	if o.Kind == "montecarlo" {
		c = n * mcSamples
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Apply runs the operator over one closed window's events under p (which
// carries the window job's cancellation token) and returns the checksum.
// A zero Policy runs it sequentially — exactly how the audit oracle calls
// it.
func (o OpSpec) Apply(p core.Policy, evs []Event) float64 {
	n := len(evs)
	if n == 0 {
		return 0
	}
	switch o.Kind {
	case "reduce":
		return pipeline.Sum(p, values(evs), 0)
	case "scan":
		dst := make([]float64, n)
		values(evs).Scan(p, dst, func(a, b float64) float64 { return a + b })
		return dst[n/2] + dst[n-1]
	case "sort":
		dst := make([]float64, n)
		values(evs).Sort(p, dst, func(a, b float64) bool { return a < b })
		return dst[0] + dst[n/2] + dst[n-1]
	case "topk":
		k := topK
		if k > n {
			k = n
		}
		src := make([]float64, n)
		values(evs).Copy(p, src)
		top := make([]float64, k)
		// Descending partial sort: the k largest values.
		core.PartialSortCopy(p, top, src, func(a, b float64) bool { return a > b })
		sum := 0.0
		for _, v := range top {
			sum += v
		}
		return sum
	case "wordcount":
		counts := wordCounts(p, evs)
		// Distinct-count-sensitive checksum: sum of squared counts plus the
		// vocabulary size. Integer arithmetic, so the map iteration order
		// and the chunk merge order never perturb it.
		sum := float64(len(counts))
		for _, c := range counts {
			sum += float64(c * c)
		}
		return sum
	case "montecarlo":
		// Per-event pi-estimator: each event seeds an LCG from its
		// timestamp and draws mcSamples points in the unit square; the
		// checksum is the exact total hit count inside the quarter circle.
		hits := pipeline.Sum(p, pipeline.Generate(n, func(i int) float64 {
			state := uint64(evs[i].TS)*2862933555777941757 + uint64(i)*0x9E3779B97F4A7C15 + 1
			h := 0
			for s := 0; s < mcSamples; s++ {
				state = state*6364136223846793005 + 1442695040888963407
				x := float64(state>>40) / float64(1<<24)
				state = state*6364136223846793005 + 1442695040888963407
				y := float64(state>>40) / float64(1<<24)
				if x*x+y*y <= 1 {
					h++
				}
			}
			return float64(h)
		}), 0)
		return hits
	}
	panic(fmt.Sprintf("flow: unknown op %q (validated at stream creation)", o.Kind))
}

// values is the fused source every element-sweep operator starts from.
func values(evs []Event) *pipeline.Pipeline[float64] {
	return pipeline.Generate(len(evs), func(i int) float64 { return evs[i].Val })
}

// wordCounts groups events by Key, counting occurrences — the wordcount
// shuffle. Parallel runs build one map per chunk and merge them in chunk
// order; int counts make the merged result independent of chunk
// boundaries.
func wordCounts(p core.Policy, evs []Event) map[string]int64 {
	f := keyCounts(evs)
	if !p.ShouldParallelize(len(evs)) {
		return f.Fold(0, len(evs))
	}
	return core.ReduceChunks(p, len(evs), make(map[string]int64), func(acc, m map[string]int64) map[string]int64 {
		for k, v := range m {
			acc[k] += v
		}
		return acc
	}, f)
}

// keyCounts counts the events of a range per Key.
type keyCounts []Event

func (evs keyCounts) Fold(lo, hi int) map[string]int64 {
	m := make(map[string]int64)
	for i := lo; i < hi; i++ {
		m[evs[i].Key]++
	}
	return m
}
