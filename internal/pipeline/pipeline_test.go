package pipeline_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
)

func testPolicy(t *testing.T) core.Policy {
	t.Helper()
	pool := native.New(4, native.StrategyStealing)
	t.Cleanup(pool.Close)
	// Fine grain, no sequential threshold: even tiny inputs take the
	// parallel path so the fusion properties exercise chunked dispatch.
	return core.Par(pool).WithGrain(exec.Fine)
}

// stageSpec is one randomized element-wise stage, applicable both to a
// fused pipeline and to a staged core.* composition over a buffer.
type stageSpec struct {
	kind int   // 0 add, 1 mul, 2 xor-fold
	k    int64 // parameter
}

func (s stageSpec) fuse(pl *pipeline.Pipeline[int64]) *pipeline.Pipeline[int64] {
	k := s.k
	switch s.kind {
	case 0:
		return pl.Transform(func(v int64) int64 { return v + k })
	case 1:
		return pl.Transform(func(v int64) int64 { return v * k })
	default:
		return pl.Transform(func(v int64) int64 { return v ^ (v >> 3) ^ k })
	}
}

// staged applies the stage to buf as its own full core.* pass — the
// composition the fused chain must match element-wise.
func (s stageSpec) staged(p core.Policy, buf []int64) {
	k := s.k
	switch s.kind {
	case 0:
		core.Transform(p, buf, buf, func(v int64) int64 { return v + k })
	case 1:
		core.Transform(p, buf, buf, func(v int64) int64 { return v * k })
	default:
		core.Transform(p, buf, buf, func(v int64) int64 { return v ^ (v >> 3) ^ k })
	}
}

// Property: every fused chain is element-wise equivalent to the staged
// core.* composition, across randomized sources, stage mixes, sizes
// (empty and 1-element forced), and terminals.
func TestPropFusedEqualsStagedComposition(t *testing.T) {
	p := testPolicy(t)
	rng := rand.New(rand.NewSource(42))
	add := func(a, b int64) int64 { return a + b }
	less := func(a, b int64) bool { return a < b }

	for trial := 0; trial < 400; trial++ {
		var n int
		switch trial % 8 { // force the degenerate sizes often
		case 0:
			n = 0
		case 1:
			n = 1
		default:
			n = rng.Intn(700)
		}
		fromSource := rng.Intn(2) == 0
		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int63n(1 << 20)
		}
		gen := func(i int) int64 { return int64(i) * 2654435761 % (1 << 20) }

		stages := make([]stageSpec, rng.Intn(5))
		for i := range stages {
			stages[i] = stageSpec{kind: rng.Intn(3), k: rng.Int63n(64) + 1}
		}

		build := func() *pipeline.Pipeline[int64] {
			var pl *pipeline.Pipeline[int64]
			if fromSource {
				pl = pipeline.From(src)
			} else {
				pl = pipeline.Generate(n, gen)
			}
			for _, s := range stages {
				pl = s.fuse(pl)
			}
			return pl
		}
		// Staged reference: materialize the source, run every stage as a
		// separate core pass.
		buf := make([]int64, n)
		if fromSource {
			core.Copy(p, buf, src)
		} else {
			core.Generate(p, buf, gen)
		}
		for _, s := range stages {
			s.staged(p, buf)
		}

		switch rng.Intn(5) {
		case 0: // reduce
			got := build().Reduce(p, 7, add)
			want := core.Reduce(p, buf, 7, add)
			if got != want {
				t.Fatalf("trial %d: Reduce fused=%d staged=%d (n=%d stages=%v from=%v)",
					trial, got, want, n, stages, fromSource)
			}
		case 1: // sum
			got := pipeline.Sum(p, build(), 3)
			want := core.Sum(p, buf, 3)
			if got != want {
				t.Fatalf("trial %d: Sum fused=%d staged=%d", trial, got, want)
			}
		case 2: // copy
			got := make([]int64, n)
			build().Copy(p, got)
			if !slices.Equal(got, buf) {
				t.Fatalf("trial %d: Copy diverges (n=%d stages=%v)", trial, n, stages)
			}
		case 3: // scan
			got := make([]int64, n)
			want := make([]int64, n)
			build().Scan(p, got, add)
			core.InclusiveScan(p, want, buf, add)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: Scan diverges (n=%d stages=%v)", trial, n, stages)
			}
		default: // sort
			got := make([]int64, n)
			build().Sort(p, got, less)
			want := slices.Clone(buf)
			core.SortFunc(p, want, less)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: Sort diverges (n=%d stages=%v)", trial, n, stages)
			}
		}
	}
}

// MapTo equivalence across the type-changing seam.
func TestMapToAndEach(t *testing.T) {
	p := testPolicy(t)
	n := 1000
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	// float64 chain -> int lengths via MapTo, reduced.
	pl := pipeline.MapTo(
		pipeline.From(src).Transform(func(v float64) float64 { return v * 2 }),
		func(v float64) int64 { return int64(v) % 7 },
	)
	got := pipeline.Sum(p, pl, 0)
	var want int64
	for i := range src {
		want += int64(src[i]*2) % 7
	}
	if got != want {
		t.Fatalf("MapTo+Sum = %d, want %d", got, want)
	}
}

// A pre-canceled policy must skip all chunks: Reduce returns init, Copy
// leaves dst untouched — and the token reports the result is not to be
// trusted, matching the staged algorithms' contract.
func TestPreCanceledSkipsWork(t *testing.T) {
	p := testPolicy(t)
	tok := &exec.Cancel{}
	tok.Cancel()
	pc := p.WithCancel(tok)
	src := make([]int64, 1<<12)
	for i := range src {
		src[i] = 1
	}
	got := pipeline.From(src).Transform(func(v int64) int64 { return v * 2 }).
		Reduce(pc, 99, func(a, b int64) int64 { return a + b })
	if got != 99 {
		t.Fatalf("pre-canceled Reduce = %d, want init 99", got)
	}
	dst := make([]int64, len(src))
	pipeline.From(src).Copy(pc, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("pre-canceled Copy wrote dst[%d]=%d", i, v)
		}
	}
	if !pc.Canceled() {
		t.Fatal("token must still report canceled")
	}
}

// Cancellation mid-chain: racing a cancel against a fused chain must never
// produce a state where the result is torn but the token claims the run
// was clean — the same property the core cancel tests pin, now through the
// fused executor.
func TestCancelMidChainNeverTearsSilently(t *testing.T) {
	pool := native.New(4, native.StrategyStealing)
	defer pool.Close()
	const n = 1 << 16
	src := make([]int64, n)
	for i := range src {
		src[i] = 1
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tok := &exec.Cancel{}
		p := core.Par(pool).WithCancel(tok)
		delay := time.Duration(rng.Intn(40)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			tok.Cancel()
		}()
		sum := pipeline.From(src).
			Transform(func(v int64) int64 { return v * 3 }).
			Transform(func(v int64) int64 { return v - 2 }).
			Reduce(p, 0, func(a, b int64) int64 { return a + b })
		if !tok.Canceled() && sum != n {
			t.Fatalf("trial %d: token clean but sum=%d, want %d (torn result escaped)",
				trial, sum, n)
		}
	}
}
