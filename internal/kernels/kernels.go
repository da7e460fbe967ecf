// Package kernels defines the benchmark kernels of the suite — the Go
// equivalents of pSTL-Bench's Listings 1-3 (the k_it volatile loop for
// for_each, the random-element find, the plus-reduction, the inclusive
// prefix sum and the shuffled sort), then the wider Table-1 set, then the
// staged and fused pipeline chains. Each kernel is one table entry holding
// its input, the untimed step before each call, the timed call and the
// result check; Kernel.Body is the one runner that times exactly the
// algorithm call, as WRAP_TIMING does, and Kernel.Account is the one place
// a call's bytes and modeled traffic are counted.
package kernels

import (
	"math/rand"
	"slices"
	"time"

	"pstlbench/internal/backend"
	"pstlbench/internal/core"
	"pstlbench/internal/harness"
	"pstlbench/internal/pipeline"
	"pstlbench/internal/skeleton"
)

// Elem is the benchmark element type, following the paper's default of
// 64-bit floating point operands.
type Elem = float64

// ForEachKernel is the paper's Listing 1: run kit dependent increments and
// store the result into the element.
func ForEachKernel(kit int) func(*Elem) {
	return func(v *Elem) {
		var a Elem
		for i := 0; i < kit; i++ {
			a++
		}
		*v = a
	}
}

// Kernel is one named benchmark kernel.
type Kernel struct {
	// Name is the pSTL-Bench kernel name.
	Name string
	// Op is the corresponding simulator operation; only meaningful when
	// Sim is true.
	Op backend.Op
	// Sim marks the kernels the performance simulator models; the others
	// run natively only.
	Sim bool
	// Bytes is the memory traffic of one call per element, the numerator
	// of the reported throughput in native and simulated rows alike.
	Bytes int64
	// Chain is the pipeline chain a chain entry runs (zero for the other
	// kernels) and Fused whether it runs as one fused pass instead of
	// staged core passes; Account reports the chain's modeled traffic.
	Chain skeleton.Chain
	Fused bool
	// Setup fills the input for n elements once and returns the untimed
	// step run before each call (nil for none), the timed call, and the
	// check of the last call's result.
	Setup func(p core.Policy, n, kit int) (prep, call func(), check func() bool)
}

// Body builds a harness benchmark body running k natively over n elements
// with the given policy and computational intensity. It is the suite's one
// WRAP_TIMING loop: only the call is timed, and a wrong result panics.
func (k Kernel) Body(p core.Policy, n, kit int) func(*harness.State) {
	return func(st *harness.State) {
		prep, call, check := k.Setup(p, n, kit)
		for st.Next() {
			if prep != nil {
				prep()
			}
			start := time.Now()
			call()
			st.SetIterationTime(time.Since(start).Seconds())
		}
		if !check() {
			panic("kernels: " + k.Name + " result wrong")
		}
		k.Account(st, int64(n))
	}
}

// IsChain reports whether k is a pipeline chain entry.
func (k Kernel) IsChain() bool { return k.Chain.Terminal != "" }

// Account records the bytes st's iterations over n elements processed,
// from Bytes, and for a chain the modeled DRAM traffic of its staged or
// fused form. The native Body and the simulated bodies both call it.
func (k Kernel) Account(st *harness.State, n int64) {
	iters := int64(st.Iterations())
	st.SetBytesProcessed(iters * n * k.Bytes)
	if k.IsChain() {
		perElem := k.Chain.StagedBytesPerElem()
		if k.Fused {
			perElem = k.Chain.FusedBytesPerElem()
		}
		st.SetTrafficBytes(iters * int64(perElem*float64(n)))
	}
}

// studied is the number of leading table entries that are the paper's five
// studied kernels; extended, the number before the first chain, covers the
// whole Table-1 subset.
const studied = 5

var extended = slices.IndexFunc(table, Kernel.IsChain)

// sliceChain and genChain are the 3-stage chain sum(g(f(x))) over a slice
// and over a generated source.
var (
	sliceChain = skeleton.Chain{Stages: 2, Terminal: "reduce"}
	genChain   = skeleton.Chain{Stages: 2, Terminal: "reduce", Generate: true}
)

// table is every kernel: the five studied ones in the paper's order, the
// Table-1 subset pSTL-Bench supports beyond them, then the chains. A sort
// counts one pass over its elements: its real traffic depends on the
// algorithm and the input, so no fixed number of passes would be right.
var table = []Kernel{
	{Name: "find", Op: backend.OpFind, Sim: true, Bytes: 8, Setup: find},
	{Name: "for_each", Op: backend.OpForEach, Sim: true, Bytes: 8, Setup: forEach},
	{Name: "inclusive_scan", Op: backend.OpInclusiveScan, Sim: true, Bytes: 16, Setup: inclusiveScan},
	{Name: "reduce", Op: backend.OpReduce, Sim: true, Bytes: 8, Setup: reduce},
	{Name: "sort", Op: backend.OpSort, Sim: true, Bytes: 8, Setup: sortKernel},
	{Name: "transform", Op: backend.OpTransform, Sim: true, Bytes: 16, Setup: transform},
	{Name: "transform_reduce", Bytes: 16, Setup: transformReduce},
	{Name: "exclusive_scan", Bytes: 16, Setup: exclusiveScan},
	{Name: "adjacent_difference", Bytes: 16, Setup: adjacentDifference},
	{Name: "count_if", Op: backend.OpCount, Sim: true, Bytes: 8, Setup: countIf},
	{Name: "minmax_element", Op: backend.OpMinMax, Sim: true, Bytes: 8, Setup: minMax},
	{Name: "copy", Op: backend.OpCopy, Sim: true, Bytes: 16, Setup: copyKernel},
	{Name: "fill", Bytes: 8, Setup: fill},
	{Name: "all_of", Bytes: 8, Setup: allOf},
	{Name: "merge", Bytes: 24, Setup: merge},
	{Name: "stable_sort", Bytes: 8, Setup: stableSort},
	{Name: "partition", Bytes: 16, Setup: partition},
	{Name: "unique", Bytes: 16, Setup: unique},
	{Name: "reverse", Bytes: 16, Setup: reverse},
	{Name: "chain_sum_staged", Op: backend.OpTransform, Sim: true, Bytes: 8, Chain: sliceChain, Setup: chain(false, false, false)},
	{Name: "chain_sum_fused", Op: backend.OpTransform, Sim: true, Bytes: 8, Chain: sliceChain, Fused: true, Setup: chain(false, false, true)},
	{Name: "chain_reduce_staged", Bytes: 8, Chain: sliceChain, Setup: chain(false, true, false)},
	{Name: "chain_reduce_fused", Bytes: 8, Chain: sliceChain, Fused: true, Setup: chain(false, true, true)},
	{Name: "chain_gen_sum_staged", Bytes: 8, Chain: genChain, Setup: chain(true, false, false)},
	{Name: "chain_gen_sum_fused", Bytes: 8, Chain: genChain, Fused: true, Setup: chain(true, false, true)},
}

// All returns the five studied kernels in the paper's order. The slice is a
// copy: appending to it or writing its entries leaves the table alone.
func All() []Kernel { return slices.Clone(table[:studied]) }

// Extended returns the five studied kernels followed by the rest of the
// Table-1 subset; of those, only the ones marked Sim have a simulator
// model. The slice is a copy, like All's.
func Extended() []Kernel { return slices.Clone(table[:extended]) }

// Chains returns the staged and fused pipeline chains; only chain_sum's
// pair has a simulator model. The slice is a copy, like All's.
func Chains() []Kernel { return slices.Clone(table[extended:]) }

// ByName looks a kernel up across the whole table.
func ByName(name string) (Kernel, bool) {
	i := slices.IndexFunc(table, func(k Kernel) bool { return k.Name == name })
	if i < 0 {
		return Kernel{}, false
	}
	return table[i], true
}

// increasing returns [1, 2, ..., n] like pstl::generate_increment.
func increasing(p core.Policy, n int) []Elem {
	data := make([]Elem, n)
	core.Generate(p, data, func(i int) Elem { return Elem(i + 1) })
	return data
}

// ramp reports whether s is [1, ..., n] (up) or [n, ..., 1] (down).
func ramp(s []Elem, up bool) bool {
	for i, v := range s {
		if up && v != Elem(i+1) || !up && v != Elem(len(s)-i) {
			return false
		}
	}
	return true
}

func shuffle(rng *rand.Rand, s []Elem) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

func triangle(n int) Elem { return Elem(n) * Elem(n+1) / 2 }

func plus(a, b Elem) Elem { return a + b }

func less(a, b Elem) bool { return a < b }

func even(v Elem) bool { return int64(v)%2 == 0 }

func find(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data := increasing(p, n)
	rng := rand.New(rand.NewSource(42))
	var target Elem
	idx := -1
	return func() { target = Elem(rng.Intn(n) + 1) },
		func() { idx = core.Find(p, data, target) },
		func() bool { return idx >= 0 && data[idx] == target }
}

func forEach(p core.Policy, n, kit int) (func(), func(), func() bool) {
	kit = max(kit, 1)
	data, kernel := increasing(p, n), ForEachKernel(kit)
	return nil, func() { core.ForEach(p, data, kernel) },
		func() bool { return n == 0 || data[0] == Elem(kit) && data[n-1] == Elem(kit) }
}

func inclusiveScan(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, dst := increasing(p, n), make([]Elem, n)
	return nil, func() { core.InclusiveSum(p, dst, src) },
		func() bool { return n == 0 || dst[n-1] == triangle(n) }
}

func reduce(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data := increasing(p, n)
	var r Elem
	return nil, func() { r = core.Sum(p, data, 0) }, func() bool { return r == triangle(n) }
}

// sortKernel and stableSort reshuffle before each call; the shuffle is
// setup, excluded from the measurement exactly as pSTL-Bench's WRAP_TIMING
// excludes it.
func sortKernel(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data, rng := increasing(p, n), rand.New(rand.NewSource(7))
	return func() { shuffle(rng, data) }, func() { core.Sort(p, data) },
		func() bool { return ramp(data, true) }
}

func stableSort(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data, rng := increasing(p, n), rand.New(rand.NewSource(9))
	return func() { shuffle(rng, data) }, func() { core.StableSort(p, data, less) },
		func() bool { return ramp(data, true) }
}

func transform(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, dst := increasing(p, n), make([]Elem, n)
	return nil, func() { core.Transform(p, dst, src, func(v Elem) Elem { return 2*v + 1 }) },
		func() bool { return n == 0 || dst[n-1] == 2*Elem(n)+1 }
}

func transformReduce(p core.Policy, n, _ int) (func(), func(), func() bool) {
	a, b := increasing(p, n), make([]Elem, n)
	core.Fill(p, b, 2)
	var dot Elem
	mul := func(x, y Elem) Elem { return x * y }
	return nil, func() { dot = core.TransformReduceBinary(p, a, b, 0, plus, mul) },
		func() bool { return dot == Elem(n)*Elem(n+1) }
}

func exclusiveScan(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, dst := make([]Elem, n), make([]Elem, n)
	core.Fill(p, src, 1)
	return nil, func() { core.ExclusiveScan(p, dst, src, 0, plus) },
		func() bool { return n == 0 || dst[n-1] == Elem(n-1) }
}

func adjacentDifference(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, dst := increasing(p, n), make([]Elem, n)
	minus := func(cur, prev Elem) Elem { return cur - prev }
	return nil, func() { core.AdjacentDifference(p, dst, src, minus) },
		func() bool { return n < 2 || dst[n-1] == 1 }
}

func countIf(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data := increasing(p, n)
	var c int
	return nil, func() { c = core.CountIf(p, data, even) }, func() bool { return c == n/2 }
}

func minMax(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data := increasing(p, n)
	var lo, hi int
	return nil, func() { lo, hi = core.MinMaxElement(p, data, less) },
		func() bool { return n == 0 || data[lo] == 1 && data[hi] == Elem(n) }
}

func copyKernel(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, dst := increasing(p, n), make([]Elem, n)
	return nil, func() { core.Copy(p, dst, src) }, func() bool { return ramp(dst, true) }
}

func fill(p core.Policy, n, _ int) (func(), func(), func() bool) {
	dst := make([]Elem, n)
	return nil, func() { core.Fill(p, dst, 7) }, func() bool { return n == 0 || dst[n-1] == 7 }
}

func allOf(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data := increasing(p, n)
	ok := false
	return nil, func() { ok = core.AllOf(p, data, func(v Elem) bool { return v > 0 }) },
		func() bool { return ok }
}

// merge merges [1..h] with [1..n-h], h = n/2, so the result is 1, 1, 2, 2,
// ..., h, h, then h+1, ..., n-h.
func merge(p core.Policy, n, _ int) (func(), func(), func() bool) {
	h := n / 2
	a, b, dst := increasing(p, h), increasing(p, n-h), make([]Elem, n)
	return nil, func() { core.Merge(p, dst, a, b, less) },
		func() bool {
			for i, v := range dst {
				if i < 2*h && v != Elem(i/2+1) || i >= 2*h && v != Elem(i-h+1) {
					return false
				}
			}
			return true
		}
}

// partition and unique restore their input before each call, untimed.
func partition(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, work := increasing(p, n), make([]Elem, n)
	var k int
	return func() { copy(work, src) }, func() { k = core.StablePartition(p, work, even) },
		func() bool { return k == n/2 && core.IsPartitioned(p, work, even) }
}

func unique(p core.Policy, n, _ int) (func(), func(), func() bool) {
	src, work := make([]Elem, n), make([]Elem, n)
	core.Generate(p, src, func(i int) Elem { return Elem(i / 4) })
	var k int
	return func() { copy(work, src) }, func() { k = core.Unique(p, work) },
		func() bool { return k == (n+3)/4 }
}

// reverse counts its calls in the untimed step: an odd count leaves the
// input descending.
func reverse(p core.Policy, n, _ int) (func(), func(), func() bool) {
	data := increasing(p, n)
	calls := 0
	return func() { calls++ }, func() { core.Reverse(p, data) },
		func() bool { return ramp(data, calls%2 == 0) }
}

// chainF and chainG are the chain's transform stages and chainGen its
// generated source. Every element they yield is a multiple of ½ below 2^25,
// so any combine order gives the exact sum up to 2^27 elements and the
// check compares with the sequential sum by ==.
func chainF(v Elem) Elem { return v*3 + 1 }

func chainG(v Elem) Elem { return v * 0.5 }

func chainGen(i int) Elem { return Elem((uint64(i+1) * 6364136223846793005) >> 40) }

// chain returns the Setup of a chain entry: sum(g(f(x))) over the slice
// x[i] = i%4096 or, if generated, over chainGen, folded by Sum or, with
// userOp, by Reduce with a user +. Staged runs materialize the intermediate
// with core passes; fused runs are one pipeline pass.
func chain(generated, userOp, fused bool) func(p core.Policy, n, kit int) (func(), func(), func() bool) {
	return func(p core.Policy, n, _ int) (func(), func(), func() bool) {
		var src []Elem
		at, pl := chainGen, pipeline.Generate(n, chainGen)
		if !generated {
			src = make([]Elem, n)
			for i := range src {
				src[i] = Elem(i % 4096)
			}
			at, pl = func(i int) Elem { return src[i] }, pipeline.From(src)
		}
		var want, got Elem
		for i := range n {
			want += chainG(chainF(at(i)))
		}
		check := func() bool { return got == want }
		pl.Transform(chainF).Transform(chainG)
		if fused {
			if userOp {
				return nil, func() { got = pl.Reduce(p, 0, plus) }, check
			}
			return nil, func() { got = pipeline.Sum(p, pl, 0) }, check
		}
		tmp := make([]Elem, n)
		if generated {
			src = tmp
		}
		return nil, func() {
			if generated {
				core.Generate(p, tmp, chainGen)
			}
			core.Transform(p, tmp, src, chainF)
			core.Transform(p, tmp, tmp, chainG)
			if userOp {
				got = core.Reduce(p, tmp, 0, plus)
			} else {
				got = core.Sum(p, tmp, 0)
			}
		}, check
	}
}
