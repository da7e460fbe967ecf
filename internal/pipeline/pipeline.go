// Package pipeline provides a lazy, composable pipeline over slices whose
// adjacent element-wise stages are fused into a single chunk-granular pass.
//
// The staged idiom this package replaces runs each algorithm as its own
// full sweep over the data:
//
//	tmp := make([]float64, n)
//	core.Transform(p, tmp, src, f)        // read src, write tmp
//	core.Transform(p, tmp, tmp, g)        // read tmp, write tmp
//	sum := core.Reduce(p, tmp, 0, add)    // read tmp
//
// At bandwidth-bound n (the regime pSTL-Bench measures for big inputs)
// each sweep is a trip through DRAM, so a 3-stage chain pays ~3× the
// memory traffic the arithmetic needs. The fused form
//
//	sum := pipeline.From(src).Transform(f).Transform(g).Reduce(p, 0, add)
//
// evaluates f∘g per element inside ONE chunk-granular loop: one pool
// submission, one memory sweep, no intermediate arrays. Chains compile
// down to the same exported core dispatch surface the staged algorithms
// use (Policy.ParallelFor, core.ReduceChunks, core.ScanChunks), so per-chunk
// cancellation, grain sources, and the seq-threshold gate behave
// identically — every fused chain is element-wise equivalent to its
// staged core.* composition, which the property tests pin.
//
// Fusion rules: only 1:1 element-wise stages fuse (Transform and the
// type-changing MapTo). Terminals that need a global view are barriers:
// Scan needs two passes (the second pass re-evaluates the chain rather
// than materializing it), Sort must materialize before comparing, and
// cardinality-changing stages (filter, unique) are deliberately absent —
// they end a chain via CopyIf on a materialized buffer. See DESIGN.md §9.
package pipeline

import "pstlbench/internal/core"

// Pipeline is a lazy chain of element-wise stages over a logical index
// domain [0, n). Nothing executes until a terminal (Reduce, Sum, Copy,
// Scan, Sort) is called with a core.Policy. The zero value is an empty
// pipeline; build one with From or Generate.
//
// Go methods cannot introduce new type parameters, so in-chain stages are
// T→T; type-changing maps are the free function MapTo.
type Pipeline[T any] struct {
	n   int
	src []T           // From source (nil for Generate)
	gen func(i int) T // Generate source (nil for From)
	// stages run in order on every element. Chains of up to three stages
	// over a source compile to loops that call the user functions
	// directly — one indirect call per stage per element, nothing else —
	// which is what keeps the fused pass cheaper than the staged one even
	// where the generic-dictionary call overhead rivals the DRAM cost per
	// element.
	stages []func(v T) T
}

// From starts a pipeline that reads its elements from src.
func From[T any](src []T) *Pipeline[T] {
	return &Pipeline[T]{n: len(src), src: src}
}

// Generate starts a pipeline whose element i is produced by gen(i) — a
// source with zero memory traffic, like std::generate feeding a chain.
// gen must be safe for concurrent calls with distinct i.
func Generate[T any](n int, gen func(i int) T) *Pipeline[T] {
	if n < 0 {
		n = 0
	}
	return &Pipeline[T]{n: n, gen: gen}
}

// Len returns the pipeline's element count.
func (pl *Pipeline[T]) Len() int { return pl.n }

// Transform appends an element-wise stage computing f(v) — fused into the
// same pass as its neighbours (std::transform without the intermediate
// array). f must be pure: it may run concurrently and, under a Scan
// terminal, more than once per element. The stage is appended in place
// and the receiver returned: chains are built-and-consumed values, not
// persistent structures.
func (pl *Pipeline[T]) Transform(f func(v T) T) *Pipeline[T] {
	pl.stages = append(pl.stages, f)
	return pl
}

// MapTo fuses a type-changing stage onto the chain, starting a new
// Pipeline[U] whose source evaluates the old chain per element. No
// materialization happens at the seam: U's source function IS the fused
// T-chain followed by f.
func MapTo[T, U any](pl *Pipeline[T], f func(v T) U) *Pipeline[U] {
	ev := pl.eval()
	return &Pipeline[U]{n: pl.n, gen: func(i int) U { return f(ev(i)) }}
}

// eval compiles the chain into a single per-element evaluator. Short
// chains are specialized per (source, stage count) so the hot loop pays
// one indirect call per stage — no generic load wrapper, no stage-slice
// walk — which is what lets the fused pass win on memory traffic instead
// of giving the saving back as call overhead.
func (pl *Pipeline[T]) eval() func(i int) T {
	if src := pl.src; src != nil {
		switch len(pl.stages) {
		case 0:
			return func(i int) T { return src[i] }
		case 1:
			f0 := pl.stages[0]
			return func(i int) T { return f0(src[i]) }
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(i int) T { return f1(f0(src[i])) }
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(i int) T { return f2(f1(f0(src[i]))) }
		}
	} else if gen := pl.gen; gen != nil {
		switch len(pl.stages) {
		case 0:
			return gen
		case 1:
			f0 := pl.stages[0]
			return func(i int) T { return f0(gen(i)) }
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(i int) T { return f1(f0(gen(i))) }
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(i int) T { return f2(f1(f0(gen(i)))) }
		}
	}
	load := pl.gen
	if src := pl.src; src != nil {
		load = func(i int) T { return src[i] }
	}
	if load == nil {
		var zero T
		load = func(int) T { return zero }
	}
	fns := pl.stages
	return func(i int) T {
		v := load(i)
		for _, f := range fns {
			v = f(v)
		}
		return v
	}
}

// folder compiles the chain + op into a fold over a non-empty index range.
// Within the range the fold runs four interleaved accumulator stripes —
// op must be associative (the std::reduce contract core.Reduce already
// states) and the striping breaks the loop-carried dependence through the
// non-inlinable op call, which otherwise serializes one call+ALU latency
// per element. The stripe layout is fixed, so results stay deterministic
// for a fixed policy. Chains of up to three stages get fully specialized
// loops that call the user stages directly: one indirect call per stage
// per element is the entire per-element cost beyond the memory sweep.
func (pl *Pipeline[T]) folder(op func(a, b T) T) func(lo, hi int) T {
	if pl.src != nil {
		src := pl.src
		switch len(pl.stages) {
		case 0:
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := src[lo]
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, src[i])
					}
					return acc
				}
				a0, a1, a2, a3 := src[lo], src[lo+1], src[lo+2], src[lo+3]
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, src[i])
					a1 = op(a1, src[i+1])
					a2 = op(a2, src[i+2])
					a3 = op(a3, src[i+3])
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, src[i])
				}
				return acc
			}
		case 1:
			f0 := pl.stages[0]
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := f0(src[lo])
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, f0(src[i]))
					}
					return acc
				}
				a0, a1, a2, a3 := f0(src[lo]), f0(src[lo+1]), f0(src[lo+2]), f0(src[lo+3])
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, f0(src[i]))
					a1 = op(a1, f0(src[i+1]))
					a2 = op(a2, f0(src[i+2]))
					a3 = op(a3, f0(src[i+3]))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, f0(src[i]))
				}
				return acc
			}
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := f1(f0(src[lo]))
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, f1(f0(src[i])))
					}
					return acc
				}
				a0, a1, a2, a3 := f1(f0(src[lo])), f1(f0(src[lo+1])), f1(f0(src[lo+2])), f1(f0(src[lo+3]))
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, f1(f0(src[i])))
					a1 = op(a1, f1(f0(src[i+1])))
					a2 = op(a2, f1(f0(src[i+2])))
					a3 = op(a3, f1(f0(src[i+3])))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, f1(f0(src[i])))
				}
				return acc
			}
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := f2(f1(f0(src[lo])))
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, f2(f1(f0(src[i]))))
					}
					return acc
				}
				a0, a1, a2, a3 := f2(f1(f0(src[lo]))), f2(f1(f0(src[lo+1]))), f2(f1(f0(src[lo+2]))), f2(f1(f0(src[lo+3])))
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, f2(f1(f0(src[i]))))
					a1 = op(a1, f2(f1(f0(src[i+1]))))
					a2 = op(a2, f2(f1(f0(src[i+2]))))
					a3 = op(a3, f2(f1(f0(src[i+3]))))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, f2(f1(f0(src[i]))))
				}
				return acc
			}
		}
	}
	if pl.gen != nil {
		gen := pl.gen
		switch len(pl.stages) {
		case 0:
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := gen(lo)
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, gen(i))
					}
					return acc
				}
				a0, a1, a2, a3 := gen(lo), gen(lo+1), gen(lo+2), gen(lo+3)
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, gen(i))
					a1 = op(a1, gen(i+1))
					a2 = op(a2, gen(i+2))
					a3 = op(a3, gen(i+3))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, gen(i))
				}
				return acc
			}
		case 1:
			f0 := pl.stages[0]
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := f0(gen(lo))
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, f0(gen(i)))
					}
					return acc
				}
				a0, a1, a2, a3 := f0(gen(lo)), f0(gen(lo+1)), f0(gen(lo+2)), f0(gen(lo+3))
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, f0(gen(i)))
					a1 = op(a1, f0(gen(i+1)))
					a2 = op(a2, f0(gen(i+2)))
					a3 = op(a3, f0(gen(i+3)))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, f0(gen(i)))
				}
				return acc
			}
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := f1(f0(gen(lo)))
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, f1(f0(gen(i))))
					}
					return acc
				}
				a0, a1, a2, a3 := f1(f0(gen(lo))), f1(f0(gen(lo+1))), f1(f0(gen(lo+2))), f1(f0(gen(lo+3)))
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, f1(f0(gen(i))))
					a1 = op(a1, f1(f0(gen(i+1))))
					a2 = op(a2, f1(f0(gen(i+2))))
					a3 = op(a3, f1(f0(gen(i+3))))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, f1(f0(gen(i))))
				}
				return acc
			}
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(lo, hi int) T {
				if hi-lo < 8 {
					acc := f2(f1(f0(gen(lo))))
					for i := lo + 1; i < hi; i++ {
						acc = op(acc, f2(f1(f0(gen(i)))))
					}
					return acc
				}
				a0, a1, a2, a3 := f2(f1(f0(gen(lo)))), f2(f1(f0(gen(lo+1)))), f2(f1(f0(gen(lo+2)))), f2(f1(f0(gen(lo+3))))
				i := lo + 4
				for ; i+3 < hi; i += 4 {
					a0 = op(a0, f2(f1(f0(gen(i)))))
					a1 = op(a1, f2(f1(f0(gen(i+1)))))
					a2 = op(a2, f2(f1(f0(gen(i+2)))))
					a3 = op(a3, f2(f1(f0(gen(i+3)))))
				}
				acc := op(op(a0, a1), op(a2, a3))
				for ; i < hi; i++ {
					acc = op(acc, f2(f1(f0(gen(i)))))
				}
				return acc
			}
		}
	}
	ev := pl.eval()
	return func(lo, hi int) T {
		if hi-lo < 8 {
			acc := ev(lo)
			for i := lo + 1; i < hi; i++ {
				acc = op(acc, ev(i))
			}
			return acc
		}
		a0, a1, a2, a3 := ev(lo), ev(lo+1), ev(lo+2), ev(lo+3)
		i := lo + 4
		for ; i+3 < hi; i += 4 {
			a0 = op(a0, ev(i))
			a1 = op(a1, ev(i+1))
			a2 = op(a2, ev(i+2))
			a3 = op(a3, ev(i+3))
		}
		acc := op(op(a0, a1), op(a2, a3))
		for ; i < hi; i++ {
			acc = op(acc, ev(i))
		}
		return acc
	}
}

// copier compiles the chain into a range writer dst[i] = chain(i) with the
// same direct-call specializations as folder (no striping: element writes
// are independent, so the CPU overlaps them on its own).
func (pl *Pipeline[T]) copier(dst []T) func(lo, hi int) {
	if pl.src != nil {
		src := pl.src
		switch len(pl.stages) {
		case 0:
			return func(lo, hi int) { copy(dst[lo:hi], src[lo:hi]) }
		case 1:
			f0 := pl.stages[0]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f0(src[i])
				}
			}
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f1(f0(src[i]))
				}
			}
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f2(f1(f0(src[i])))
				}
			}
		}
	}
	if pl.gen != nil {
		gen := pl.gen
		switch len(pl.stages) {
		case 0:
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = gen(i)
				}
			}
		case 1:
			f0 := pl.stages[0]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f0(gen(i))
				}
			}
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f1(f0(gen(i)))
				}
			}
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f2(f1(f0(gen(i))))
				}
			}
		}
	}
	ev := pl.eval()
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = ev(i)
		}
	}
}

// Reduce executes the chain and folds the results with op starting from
// init (std::transform_reduce over the whole fused chain). op must be
// associative: like std::reduce the combination order is unspecified
// (within a chunk the fold runs fixed accumulator stripes, across chunks
// core.ReduceChunks combines results in chunk order), but it is
// deterministic for a fixed policy. Under a canceled policy the result is
// incomplete and must be discarded (p.Canceled() is the source of truth),
// exactly as with the staged form.
func (pl *Pipeline[T]) Reduce(p core.Policy, init T, op func(a, b T) T) T {
	n := pl.n
	if n == 0 {
		return init
	}
	fold := pl.folder(op)
	if !p.ShouldParallelize(n) {
		return op(init, fold(0, n))
	}
	return core.ReduceChunks(p, n, init, op, rangeFold[T](fold))
}

// rangeFold adapts a compiled range fold to core.ChunkFolder.
type rangeFold[T any] func(lo, hi int) T

func (f rangeFold[T]) Fold(lo, hi int) T { return f(lo, hi) }

// Sum folds a numeric chain with +, the fused counterpart of core.Sum
// (the common std::reduce case the paper benchmarks). A free function
// because methods cannot add the Number constraint — which is exactly what
// lets it inline the addition: the fold pays zero op-callback calls per
// element, only the user stages, so a fused sum chain runs at the speed of
// its source sweep plus one indirect call per stage.
func Sum[T core.Number](p core.Policy, pl *Pipeline[T], init T) T {
	n := pl.n
	if n == 0 {
		return init
	}
	fold := sumFolder(pl)
	if !p.ShouldParallelize(n) {
		return init + fold(0, n)
	}
	return core.ReduceChunks(p, n, init, func(a, b T) T { return a + b }, rangeFold[T](fold))
}

// sumFolder is folder specialized to the + operator: same striping, no op
// callback.
func sumFolder[T core.Number](pl *Pipeline[T]) func(lo, hi int) T {
	if pl.src != nil {
		src := pl.src
		switch len(pl.stages) {
		case 0:
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += src[i]
					a1 += src[i+1]
					a2 += src[i+2]
					a3 += src[i+3]
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += src[i]
				}
				return acc
			}
		case 1:
			f0 := pl.stages[0]
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += f0(src[i])
					a1 += f0(src[i+1])
					a2 += f0(src[i+2])
					a3 += f0(src[i+3])
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += f0(src[i])
				}
				return acc
			}
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += f1(f0(src[i]))
					a1 += f1(f0(src[i+1]))
					a2 += f1(f0(src[i+2]))
					a3 += f1(f0(src[i+3]))
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += f1(f0(src[i]))
				}
				return acc
			}
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += f2(f1(f0(src[i])))
					a1 += f2(f1(f0(src[i+1])))
					a2 += f2(f1(f0(src[i+2])))
					a3 += f2(f1(f0(src[i+3])))
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += f2(f1(f0(src[i])))
				}
				return acc
			}
		}
	}
	if pl.gen != nil {
		gen := pl.gen
		switch len(pl.stages) {
		case 0:
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += gen(i)
					a1 += gen(i + 1)
					a2 += gen(i + 2)
					a3 += gen(i + 3)
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += gen(i)
				}
				return acc
			}
		case 1:
			f0 := pl.stages[0]
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += f0(gen(i))
					a1 += f0(gen(i + 1))
					a2 += f0(gen(i + 2))
					a3 += f0(gen(i + 3))
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += f0(gen(i))
				}
				return acc
			}
		case 2:
			f0, f1 := pl.stages[0], pl.stages[1]
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += f1(f0(gen(i)))
					a1 += f1(f0(gen(i + 1)))
					a2 += f1(f0(gen(i + 2)))
					a3 += f1(f0(gen(i + 3)))
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += f1(f0(gen(i)))
				}
				return acc
			}
		case 3:
			f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
			return func(lo, hi int) T {
				var a0, a1, a2, a3 T
				i := lo
				for ; i+3 < hi; i += 4 {
					a0 += f2(f1(f0(gen(i))))
					a1 += f2(f1(f0(gen(i + 1))))
					a2 += f2(f1(f0(gen(i + 2))))
					a3 += f2(f1(f0(gen(i + 3))))
				}
				acc := a0 + a1 + a2 + a3
				for ; i < hi; i++ {
					acc += f2(f1(f0(gen(i))))
				}
				return acc
			}
		}
	}
	ev := pl.eval()
	return func(lo, hi int) T {
		var a0, a1, a2, a3 T
		i := lo
		for ; i+3 < hi; i += 4 {
			a0 += ev(i)
			a1 += ev(i + 1)
			a2 += ev(i + 2)
			a3 += ev(i + 3)
		}
		acc := a0 + a1 + a2 + a3
		for ; i < hi; i++ {
			acc += ev(i)
		}
		return acc
	}
}

// Copy executes the chain and writes element i to dst[i] — the fused
// generate/transform-into-destination terminal. dst must have length ≥ n
// and must not alias a From source unless element-wise overwrite is
// intended (i is written only after being read, within the same index).
func (pl *Pipeline[T]) Copy(p core.Policy, dst []T) {
	n := pl.n
	_ = dst[:n] // bounds check once, like core.Transform
	write := pl.copier(dst)
	if !p.ShouldParallelize(n) {
		write(0, n)
		return
	}
	p.ParallelFor(n, func(_, lo, hi int) {
		write(lo, hi)
	})
}

// Scan executes the chain and writes its inclusive prefix combination
// under op into dst (fused transform_inclusive_scan). Scan is a fusion
// BARRIER: a prefix needs every earlier element, so the parallel form is
// the same two-phase decomposition core.TransformInclusiveScan uses —
// phase 1 folds per-chunk sums, phase 2 re-evaluates the chain and adds
// the chunk offset. The chain is therefore evaluated twice per element;
// stages must be pure, and for expensive stages a materializing
// Copy-then-core.InclusiveScan can be cheaper. Both phases derive from ONE
// chunk decomposition, so adaptive grain sources cannot shear the phases.
func (pl *Pipeline[T]) Scan(p core.Policy, dst []T, op func(a, b T) T) {
	n := pl.n
	_ = dst[:n]
	ev := pl.eval()
	if n == 0 {
		return
	}
	if !p.ShouldParallelize(n) {
		acc := ev(0)
		dst[0] = acc
		for i := 1; i < n; i++ {
			acc = op(acc, ev(i))
			dst[i] = acc
		}
		return
	}
	var none T
	core.ScanChunks(p, n, none, false, op, scanner[T]{pl.folder(op), ev, dst, op})
}

// scanner is Scan's per-chunk work: the striped fold for phase 1, a
// re-evaluating inclusive rescan for phase 2.
type scanner[T any] struct {
	fold func(lo, hi int) T
	ev   func(i int) T
	dst  []T
	op   func(a, b T) T
}

func (s scanner[T]) Fold(lo, hi int) T { return s.fold(lo, hi) }

func (scanner[T]) Reserve(T) {}

func (s scanner[T]) Rescan(lo, hi int, carry T, hasCarry bool) {
	acc := s.ev(lo)
	if hasCarry {
		acc = s.op(carry, acc)
	}
	s.dst[lo] = acc
	for i := lo + 1; i < hi; i++ {
		acc = s.op(acc, s.ev(i))
		s.dst[i] = acc
	}
}

// Sort executes the chain into dst and sorts it ascending under less.
// Sort is a fusion BARRIER: comparisons need materialized values, so the
// chain fuses into the fill pass (one sweep instead of k) and the
// comparison sort runs on dst as core.SortFunc would. dst must have
// length ≥ n.
func (pl *Pipeline[T]) Sort(p core.Policy, dst []T, less func(a, b T) bool) {
	pl.Copy(p, dst)
	core.SortFunc(p, dst[:pl.n], less)
}
