package core_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
)

// The oracles below restate the combine-order contract of ReduceChunks
// and ScanChunks as plain loops over p.Chunks(n): every chunk is a left
// fold, chunk results combine onto the init left to right in chunk order,
// and a scan rescans each chunk from the combination of everything before
// it. Float addition does not associate, so comparing float bits pins the
// order, not just the value.

var oracleGrains = map[string]exec.Grain{
	"auto":   exec.Auto,
	"static": exec.Static,
	"guided": exec.Guided,
	"cpw7":   {ChunksPerWorker: 7},
}

// wideFloats returns n non-zero floats spanning ~2^-40..2^40 in magnitude,
// both signs, so every reassociation of a sum shows in its low bits.
func wideFloats(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Ldexp(1+rng.Float64(), rng.Intn(81)-40)
		if rng.Intn(2) == 0 {
			s[i] = -s[i]
		}
	}
	return s
}

func add(a, b float64) float64 { return a + b }

func leftFold(xs []float64, op func(a, b float64) float64) float64 {
	acc := xs[0]
	for _, v := range xs[1:] {
		acc = op(acc, v)
	}
	return acc
}

// stripeFold is the pipeline's per-chunk fold: four interleaved
// accumulators from 8 elements up.
func stripeFold(xs []float64, op func(a, b float64) float64) float64 {
	if len(xs) < 8 {
		return leftFold(xs, op)
	}
	a0, a1, a2, a3 := xs[0], xs[1], xs[2], xs[3]
	i := 4
	for ; i+3 < len(xs); i += 4 {
		a0, a1, a2, a3 = op(a0, xs[i]), op(a1, xs[i+1]), op(a2, xs[i+2]), op(a3, xs[i+3])
	}
	acc := op(op(a0, a1), op(a2, a3))
	for ; i < len(xs); i++ {
		acc = op(acc, xs[i])
	}
	return acc
}

// stripeSum is pipeline.Sum's per-chunk fold: four zero-started
// accumulators summed left to right.
func stripeSum(xs []float64) float64 {
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+3 < len(xs); i += 4 {
		a0 += xs[i]
		a1 += xs[i+1]
		a2 += xs[i+2]
		a3 += xs[i+3]
	}
	acc := a0 + a1 + a2 + a3
	for ; i < len(xs); i++ {
		acc += xs[i]
	}
	return acc
}

// oracleReduce combines fold(chunk) onto init in chunk order.
func oracleReduce[R any](p core.Policy, n int, init R, op func(a, b R) R, fold func(lo, hi int) R) R {
	cs := p.Chunks(n)
	acc := init
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.At(ci)
		acc = op(acc, fold(c.Lo, c.Hi))
	}
	return acc
}

// oracleInclusive is the two-phase inclusive prefix of xs under op onto
// an optional carry-in, with fold as the phase-1 chunk fold. It returns
// the output and the grand total.
func oracleInclusive(p core.Policy, xs []float64, op func(a, b float64) float64, fold func([]float64, func(a, b float64) float64) float64, carry float64, hasCarry bool) ([]float64, float64) {
	out := make([]float64, len(xs))
	cs := p.Chunks(len(xs))
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.At(ci)
		acc := xs[c.Lo]
		if hasCarry {
			acc = op(carry, acc)
		}
		out[c.Lo] = acc
		for i := c.Lo + 1; i < c.Hi; i++ {
			acc = op(acc, xs[i])
			out[i] = acc
		}
		if r := fold(xs[c.Lo:c.Hi], op); hasCarry {
			carry = op(carry, r)
		} else {
			carry, hasCarry = r, true
		}
	}
	return out, carry
}

// oracleExclusive is the two-phase exclusive prefix of xs onto init.
func oracleExclusive(p core.Policy, xs []float64, init float64) []float64 {
	out := make([]float64, len(xs))
	cs := p.Chunks(len(xs))
	carry := init
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.At(ci)
		acc := carry
		for i := c.Lo; i < c.Hi; i++ {
			out[i] = acc
			acc += xs[i]
		}
		carry += leftFold(xs[c.Lo:c.Hi], add)
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSliceBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}

// TestChunkedFoldsBitExact checks every parallel chunked reduction and
// prefix — core's and the fused pipeline's — against the in-test oracle
// on float bits, across worker counts, grains and sizes. The sequential
// loops of Reduce, Sum and the scans are checked against the Transform*
// form with an identity transform, which keeps the generic per-element
// fold.
func TestChunkedFoldsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sizes := []int{2, 3, 17, 1000, 4097, 1 << 16}
	id := func(v float64) float64 { return v }
	for _, n := range sizes {
		p := core.Seq()
		s := wideFloats(rng, n)
		if got, want := core.Reduce(p, s, 0.25, add), core.TransformReduce(p, s, 0.25, add, id); !sameBits(got, want) {
			t.Errorf("seq n=%d: Reduce = %v, TransformReduce %v", n, got, want)
		}
		if got, want := core.Sum(p, s, 0.25), core.TransformReduce(p, s, 0.25, add, id); !sameBits(got, want) {
			t.Errorf("seq n=%d: Sum = %v, TransformReduce %v", n, got, want)
		}
		got, want := make([]float64, n), make([]float64, n)
		core.TransformInclusiveScan(p, want, s, add, id)
		core.InclusiveScan(p, got, s, add)
		if !sameSliceBits(got, want) {
			t.Errorf("seq n=%d: InclusiveScan diverges from TransformInclusiveScan", n)
		}
		core.InclusiveSum(p, got, s)
		if !sameSliceBits(got, want) {
			t.Errorf("seq n=%d: InclusiveSum diverges from TransformInclusiveScan", n)
		}
		core.TransformExclusiveScan(p, want, s, 0.25, add, id)
		core.ExclusiveScan(p, got, s, 0.25, add)
		if !sameSliceBits(got, want) {
			t.Errorf("seq n=%d: ExclusiveScan diverges from TransformExclusiveScan", n)
		}
	}
	for _, w := range []int{2, 3} {
		pool := native.New(w, native.StrategyStealing)
		defer pool.Close()
		for gname, g := range oracleGrains {
			p := core.Par(pool).WithGrain(g)
			for _, n := range sizes {
				s := wideFloats(rng, n)
				b := wideFloats(rng, n)
				scale := func(v float64) float64 { return v * 1.5 }
				scaled := make([]float64, n)
				for i, v := range s {
					scaled[i] = scale(v)
				}
				fail := func(what string, got, want any) {
					t.Helper()
					t.Errorf("w=%d grain=%s n=%d: %s = %v, oracle %v", w, gname, n, what, got, want)
				}
				chunkSum := func(xs []float64) func(lo, hi int) float64 {
					return func(lo, hi int) float64 { return leftFold(xs[lo:hi], add) }
				}

				if got, want := core.Reduce(p, s, 0.25, add), oracleReduce(p, n, 0.25, add, chunkSum(s)); !sameBits(got, want) {
					fail("Reduce", got, want)
				}
				if got, want := core.Sum(p, s, 0.25), oracleReduce(p, n, 0.25, add, chunkSum(s)); !sameBits(got, want) {
					fail("Sum", got, want)
				}
				if got, want := core.TransformReduce(p, s, 0.25, add, scale), oracleReduce(p, n, 0.25, add, chunkSum(scaled)); !sameBits(got, want) {
					fail("TransformReduce", got, want)
				}
				prod := make([]float64, n)
				for i := range prod {
					prod[i] = s[i] * b[i]
				}
				mul := func(x, y float64) float64 { return x * y }
				if got, want := core.TransformReduceBinary(p, s, b, 0.25, add, mul), oracleReduce(p, n, 0.25, add, chunkSum(prod)); !sameBits(got, want) {
					fail("TransformReduceBinary", got, want)
				}
				pos := func(v float64) bool { return v > 0 }
				wantCount := 0
				for _, v := range s {
					if pos(v) {
						wantCount++
					}
				}
				if got := core.CountIf(p, s, pos); got != wantCount {
					fail("CountIf", got, wantCount)
				}

				// Coarse values make ties, which pin first-min / first-max /
				// last-max across chunk boundaries.
				coarse := make([]float64, n)
				for i, v := range s {
					coarse[i] = math.Round(v) / 8
				}
				less := func(x, y float64) bool { return x < y }
				wantMin, wantMax, wantLastMax := 0, 0, 0
				for i, v := range coarse {
					if v < coarse[wantMin] {
						wantMin = i
					}
					if v > coarse[wantMax] {
						wantMax = i
					}
					if v >= coarse[wantLastMax] {
						wantLastMax = i
					}
				}
				if got := core.MinElement(p, coarse, less); got != wantMin {
					fail("MinElement", got, wantMin)
				}
				if got := core.MaxElement(p, coarse, less); got != wantMax {
					fail("MaxElement", got, wantMax)
				}
				if lo, hi := core.MinMaxElement(p, coarse, less); lo != wantMin || hi != wantLastMax {
					fail("MinMaxElement", [2]int{lo, hi}, [2]int{wantMin, wantLastMax})
				}

				dst := make([]float64, n)
				core.InclusiveSum(p, dst, s)
				if want, _ := oracleInclusive(p, s, add, leftFold, 0, false); !sameSliceBits(dst, want) {
					fail("InclusiveSum", "diverges", "")
				}
				core.InclusiveScan(p, dst, s, add)
				if want, _ := oracleInclusive(p, s, add, leftFold, 0, false); !sameSliceBits(dst, want) {
					fail("InclusiveScan", "diverges", "")
				}
				core.TransformInclusiveScan(p, dst, s, add, scale)
				if want, _ := oracleInclusive(p, scaled, add, leftFold, 0, false); !sameSliceBits(dst, want) {
					fail("TransformInclusiveScan", "diverges", "")
				}
				core.ExclusiveScan(p, dst, s, 0.25, add)
				if want := oracleExclusive(p, s, 0.25); !sameSliceBits(dst, want) {
					fail("ExclusiveScan", "diverges", "")
				}

				var wantKept []float64
				for _, v := range s {
					if pos(v) {
						wantKept = append(wantKept, v)
					}
				}
				kept := make([]float64, 0, n)
				if k := core.CopyIf(p, kept, s, pos); !sameSliceBits(kept[:k], wantKept) {
					fail("CopyIf", k, len(wantKept))
				}
				uniq := slices.Clone(coarse)
				if k, want := core.Unique(p, uniq), slices.Compact(slices.Clone(coarse)); !sameSliceBits(uniq[:k], want) {
					fail("Unique", k, len(want))
				}

				if got, want := pipeline.From(s).Transform(scale).Reduce(p, 0.25, add), oracleReduce(p, n, 0.25, add, func(lo, hi int) float64 { return stripeFold(scaled[lo:hi], add) }); !sameBits(got, want) {
					fail("pipeline.Reduce", got, want)
				}
				if got, want := pipeline.Sum(p, pipeline.From(s).Transform(scale), 0.25), oracleReduce(p, n, 0.25, add, func(lo, hi int) float64 { return stripeSum(scaled[lo:hi]) }); !sameBits(got, want) {
					fail("pipeline.Sum", got, want)
				}
				pipeline.From(s).Transform(scale).Scan(p, dst, add)
				if want, _ := oracleInclusive(p, scaled, add, stripeFold, 0, false); !sameSliceBits(dst, want) {
					fail("pipeline.Scan", "diverges", "")
				}
			}
		}
	}
}

// TestChunkedFoldAllocs pins the per-call allocation count of every
// chunked reduction and prefix, and of the paper's other element loops, at
// n = 2^10 on a 2-worker stealing pool. The Reduce, Sum, scan, Find,
// Mismatch, ForEach and Fill rows are pinned at their measured counts; the
// other rows keep the counts from before the chunked helpers existed.
// Lowering them is the zero-allocation work's job.
func TestChunkedFoldAllocs(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	p := core.Par(pool)
	const n = 1 << 10
	src := make([]float64, n)
	dst := make([]float64, n)
	uniq := make([]float64, n)
	other := make([]float64, n)
	for i := range src {
		src[i] = float64(i % 13)
	}
	copy(other, src)
	mul := func(a, b float64) float64 { return a * b }
	less := func(a, b float64) bool { return a < b }
	big := func(v float64) bool { return v > 6 }
	neg := func(v *float64) { *v = -*v }
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Reduce", 3, func() { core.Reduce(p, src, 0, add) }},
		{"Sum", 3, func() { core.Sum(p, src, 0) }},
		{"TransformReduceBinary", 4, func() { core.TransformReduceBinary(p, src, src, 0, add, mul) }},
		{"CountIf", 3, func() { core.CountIf(p, src, big) }},
		{"MinElement", 5, func() { core.MinElement(p, src, less) }},
		{"MinMaxElement", 4, func() { core.MinMaxElement(p, src, less) }},
		{"InclusiveScan", 5, func() { core.InclusiveScan(p, dst, src, add) }},
		{"InclusiveSum", 6, func() { core.InclusiveSum(p, dst, src) }},
		{"ExclusiveScan", 5, func() { core.ExclusiveScan(p, dst, src, 0, add) }},
		{"CopyIf", 6, func() { core.CopyIf(p, dst, src, big) }},
		{"Unique", 9, func() { copy(uniq, src); core.Unique(p, uniq) }},
		{"pipeline.Sum", 6, func() { pipeline.Sum(p, pipeline.From(src), 0) }},
		{"pipeline.Reduce", 7, func() { pipeline.From(src).Reduce(p, 0, add) }},
		{"pipeline.Scan", 12, func() { pipeline.From(src).Scan(p, dst, add) }},
		{"Find", 3, func() { core.Find(p, src, 99) }},
		{"Mismatch", 3, func() { core.Mismatch(p, src, other) }},
		{"ForEach", 1, func() { core.ForEach(p, dst, neg) }},
		{"Fill", 1, func() { core.Fill(p, dst, 1) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s allocates %v per call, want <= %v", c.name, got, c.max)
		}
	}
}

// sliceSum is a ChunkFolder and ChunkScanner over a float slice: a left
// fold with +, and an inclusive rescan into out.
type sliceSum struct{ in, out []float64 }

func (s sliceSum) Fold(lo, hi int) float64 { return leftFold(s.in[lo:hi], add) }

func (sliceSum) Reserve(float64) {}

func (s sliceSum) Rescan(lo, hi int, carry float64, hasCarry bool) {
	acc := s.in[lo]
	if hasCarry {
		acc += carry
	}
	s.out[lo] = acc
	for i := lo + 1; i < hi; i++ {
		acc += s.in[i]
		s.out[i] = acc
	}
}

// FuzzChunkFold decodes bytes into a size, worker count, grain and float
// values, then checks ReduceChunks and ScanChunks bitwise against the
// in-test oracle. Byte 0 picks the worker count (2 or 3), byte 1 the
// grain, bytes 2-3 the size; the rest, eight bytes a value, become finite
// floats whose exponents span ±64, repeated to fill the size.
func FuzzChunkFold(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 1, 17, 0, 0xff, 0x80, 0x7f, 1, 9, 9, 9, 9, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})
	f.Add([]byte{0, 2, 0xe8, 0x03, 0x3c, 0xa1, 0x5e, 0x77, 0x01, 0xfe, 0x33, 0x99})
	f.Add([]byte{1, 3, 0x01, 0x10, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0, 4, 0xff, 0xff, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	pools := []*native.Pool{native.New(2, native.StrategyStealing), native.New(3, native.StrategyStealing)}
	f.Cleanup(func() {
		for _, pl := range pools {
			pl.Close()
		}
	})
	grains := []exec.Grain{exec.Auto, exec.Static, exec.Guided, exec.Fine, {ChunksPerWorker: 7}, {ChunksPerWorker: 3, MinChunk: 5, MaxChunk: 40}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		p := core.Par(pools[int(data[0])%len(pools)]).WithGrain(grains[int(data[1])%len(grains)])
		n := 2 + int(binary.LittleEndian.Uint16(data[2:4]))
		vals := data[4:]
		in := make([]float64, n)
		for i := range in {
			k := (i * 8) % (len(vals) - len(vals)%8)
			u := binary.LittleEndian.Uint64(vals[k : k+8])
			in[i] = math.Ldexp(1+float64(u>>12)/(1<<52), int(u%129)-64)
			if u&(1<<11) != 0 {
				in[i] = -in[i]
			}
		}
		s := sliceSum{in, make([]float64, n)}
		if got, want := core.ReduceChunks(p, n, 0.5, add, s), oracleReduce(p, n, 0.5, add, s.Fold); !sameBits(got, want) {
			t.Fatalf("n=%d: ReduceChunks = %v, oracle %v", n, got, want)
		}
		for _, hasCarry := range []bool{false, true} {
			total := core.ScanChunks(p, n, 0.5, hasCarry, add, s)
			out, wantTotal := oracleInclusive(p, in, add, leftFold, 0.5, hasCarry)
			if !sameSliceBits(s.out, out) {
				t.Fatalf("n=%d carry-in=%v: ScanChunks output diverges from the oracle", n, hasCarry)
			}
			if !sameBits(total, wantTotal) {
				t.Fatalf("n=%d carry-in=%v: ScanChunks total = %v, oracle %v", n, hasCarry, total, wantTotal)
			}
		}
	})
}
