package tune_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/trace"
	"pstlbench/internal/tune"
)

// The tuner's Source must plug into core.Policy without adaptation.
var _ core.GrainSource = tune.Source{}

// chunkOf returns the uniform chunk size of a tuner-proposed grain.
func chunkOf(t *testing.T, g exec.Grain) int {
	t.Helper()
	if g.MinChunk != g.MaxChunk || g.MinChunk < 1 {
		t.Fatalf("proposed grain is not a uniform chunk: %+v", g)
	}
	return g.MinChunk
}

func TestProposeStartsAtAuto(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "for_each", N: 1 << 16, Workers: 8}
	g := tn.Propose(k)
	want := exec.Auto.Chunks(k.N, k.Workers).Len()
	if got := g.Chunks(k.N, k.Workers).Len(); got != want {
		t.Fatalf("first proposal yields %d chunks, want auto's %d", got, want)
	}
	if tn.Converged(k) {
		t.Fatal("converged before any observation")
	}
}

func TestProposeDegenerateKeys(t *testing.T) {
	tn := tune.New()
	if g := tn.Propose(tune.Key{Site: "x", N: 0, Workers: 8}); g != exec.Auto {
		t.Fatalf("n=0 proposal = %+v, want exec.Auto", g)
	}
	// workers > n: the proposal must still tile [0, n).
	k := tune.Key{Site: "x", N: 3, Workers: 64}
	g := tn.Propose(k)
	checkTiling(t, g, k.N, k.Workers)
}

func TestCoarsensOnRemoteSteals(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "for_each", N: 1 << 16, Workers: 8}
	secs := 1.0
	prev := chunkOf(t, tn.Propose(k))
	for i := 0; i < 4; i++ {
		tn.Observe(k, tune.Observation{
			Seconds: secs, LocalSteals: 10, RemoteSteals: 100,
		})
		cur := chunkOf(t, tn.Propose(k))
		if cur < prev {
			t.Fatalf("step %d: refined %d -> %d under remote-steal pressure", i, prev, cur)
		}
		prev = cur
		secs *= 0.8 // coarser keeps paying off
	}
	if prev <= 1<<16/(8*4) {
		t.Fatalf("never coarsened past auto: chunk=%d", prev)
	}
}

func TestRefinesOnIdleGapMass(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "reduce", N: 1 << 16, Workers: 8}
	secs := 1.0
	prev := chunkOf(t, tn.Propose(k))
	for i := 0; i < 3; i++ {
		tn.ObserveSummary(k, idleSummary(0.5))
		tn.Observe(k, tune.Observation{Seconds: secs})
		cur := chunkOf(t, tn.Propose(k))
		if cur > prev {
			t.Fatalf("step %d: coarsened %d -> %d under idle-gap pressure", i, prev, cur)
		}
		prev = cur
		secs *= 0.8
	}
	if prev >= 1<<16/(8*4) {
		t.Fatalf("never refined below auto: chunk=%d", prev)
	}
}

// idleSummary is a one-second trace window whose single active track is
// idle for the given fraction of it.
func idleSummary(idle float64) *trace.Summary {
	return &trace.Summary{Start: 0, End: 1, Tracks: []trace.TrackStats{{Chunks: 4, BusySeconds: 1 - idle}}}
}

func TestObserveSummaryFeedsIdleIntoCounterObservations(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "scan", N: 1 << 16, Workers: 8}
	start := chunkOf(t, tn.Propose(k))
	// A trace summary showing 60% idle, then a counter-only observation:
	// the pending idle fraction must force refinement.
	tn.ObserveSummary(k, &trace.Summary{
		Start: 0, End: 1,
		Tracks: []trace.TrackStats{{Chunks: 4, BusySeconds: 0.4}},
	})
	tn.Observe(k, tune.Observation{Seconds: 1.0})
	if cur := chunkOf(t, tn.Propose(k)); cur >= start {
		t.Fatalf("chunk %d -> %d: trace idle mass did not refine", start, cur)
	}
}

func TestReversalLocksAtBest(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "for_each", N: 1 << 16, Workers: 8}
	// Improving, improving, then worse: the climb must turn around once
	// and settle on the best-seen operating point.
	for _, secs := range []float64{1.0, 0.7, 0.9} {
		tn.Propose(k)
		tn.Observe(k, tune.Observation{Seconds: secs})
	}
	if !tn.Converged(k) {
		t.Fatal("not converged after a reversal into explored ground")
	}
	best, _, ok := tn.Best(k)
	if !ok {
		t.Fatal("no best point recorded")
	}
	if cur := chunkOf(t, tn.Propose(k)); cur != best {
		t.Fatalf("locked proposal %d != best %d", cur, best)
	}
}

func TestPlateauLocks(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "for_each", N: 1 << 16, Workers: 8}
	tn.Propose(k)
	tn.Observe(k, tune.Observation{Seconds: 1.0})
	tn.Propose(k)
	tn.Observe(k, tune.Observation{Seconds: 1.0})
	if !tn.Converged(k) {
		t.Fatal("flat landscape did not lock")
	}
}

func TestDriftReopensAfterLock(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "for_each", N: 1 << 16, Workers: 8}
	for _, secs := range []float64{1.0, 0.7, 0.9} {
		tn.Propose(k)
		tn.Observe(k, tune.Observation{Seconds: secs})
	}
	if !tn.Converged(k) {
		t.Fatal("setup: not converged")
	}
	// Two consecutive observations far below the locked throughput reopen
	// the climb.
	tn.Observe(k, tune.Observation{Seconds: 5.0})
	tn.Observe(k, tune.Observation{Seconds: 5.0})
	if tn.Converged(k) {
		t.Fatal("drifted landscape stayed locked")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	tn := tune.New()
	k := tune.Key{Site: "for_each", N: 1 << 16, Workers: 8}
	for _, secs := range []float64{1.0, 0.7, 0.9} {
		tn.Propose(k)
		tn.Observe(k, tune.Observation{Seconds: secs})
	}
	wantChunk := chunkOf(t, tn.Propose(k))

	var buf bytes.Buffer
	if err := tn.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	c, err := tune.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(c.Entries) != 1 || !c.Entries[0].Converged {
		t.Fatalf("cache = %+v, want one converged entry", c)
	}

	warm := tune.New()
	applied, err := warm.Import(c)
	if err != nil || applied != 1 {
		t.Fatalf("Import applied %d entries, err %v", applied, err)
	}
	if got := chunkOf(t, warm.Propose(k)); got != wantChunk {
		t.Fatalf("warm-started proposal %d, want %d", got, wantChunk)
	}
	if !warm.Converged(k) {
		t.Fatal("warm start dropped convergence")
	}
}

func TestImportRejectsWrongVersion(t *testing.T) {
	tn := tune.New()
	if _, err := tn.Import(tune.Cache{Version: 99}); err == nil {
		t.Fatal("version 99 accepted")
	}
}

// TestProposalsAlwaysTile drives the tuner with pseudo-random observations
// and asserts every proposed grain tiles [0, n) exactly once — the tuner
// must never hand algorithms an overlapping or lossy decomposition.
func TestProposalsAlwaysTile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tn := tune.New()
	for trial := 0; trial < 200; trial++ {
		k := tune.Key{
			Site:    "prop",
			N:       1 + rng.Intn(100000),
			Workers: 1 + rng.Intn(128),
		}
		for i := 0; i < 6; i++ {
			g := tn.Propose(k)
			checkTiling(t, g, k.N, k.Workers)
			o := tune.Observation{
				Seconds:      0.1 + rng.Float64(),
				LocalSteals:  float64(rng.Intn(100)),
				RemoteSteals: float64(rng.Intn(100)),
			}
			if rng.Intn(2) == 0 {
				tn.ObserveSummary(k, idleSummary(rng.Float64()))
			}
			tn.Observe(k, o)
		}
	}
}

// checkTiling asserts the grain's chunk decomposition covers [0, n)
// contiguously with no overlap.
func checkTiling(t *testing.T, g exec.Grain, n, workers int) {
	t.Helper()
	cs := g.Chunks(n, workers)
	chunks := cs.Len()
	if n == 0 {
		if chunks != 0 {
			t.Fatalf("n=0: Len()=%d, want 0", chunks)
		}
		return
	}
	if chunks < 1 {
		t.Fatalf("n=%d w=%d grain %+v: Len()=%d", n, workers, g, chunks)
	}
	pos := 0
	for ci := 0; ci < chunks; ci++ {
		r := cs.At(ci)
		if r.Lo != pos {
			t.Fatalf("n=%d w=%d grain %+v: chunk %d starts at %d, want %d", n, workers, g, ci, r.Lo, pos)
		}
		if r.Hi <= r.Lo {
			t.Fatalf("n=%d w=%d grain %+v: chunk %d empty [%d,%d)", n, workers, g, ci, r.Lo, r.Hi)
		}
		pos = r.Hi
	}
	if pos != n {
		t.Fatalf("n=%d w=%d grain %+v: tiling ends at %d", n, workers, g, pos)
	}
}

func TestSourceKeysBySize(t *testing.T) {
	tn := tune.New()
	src := tn.Site("for_each")
	g1 := src.Grain(1<<16, 8)
	checkTiling(t, g1, 1<<16, 8)
	// Observing one size must not disturb another.
	tn.Observe(tune.Key{Site: "for_each", N: 1 << 16, Workers: 8},
		tune.Observation{Seconds: 1, RemoteSteals: 100, LocalSteals: 1})
	g2 := src.Grain(1<<10, 8)
	want := exec.Auto.Chunks(1<<10, 8).Len()
	if got := g2.Chunks(1<<10, 8).Len(); got != want {
		t.Fatalf("fresh size starts with %d chunks, want auto's %d", got, want)
	}
}

// syntheticLandscape models a loop whose optimal chunk scales with n
// (optimum at n/8, above the exec.Auto start so the default coarsening
// probe is the right direction): seconds grow with the ladder distance
// from the optimum, deterministically, so climbs are reproducible.
func syntheticLandscape(n, chunk int) float64 {
	opt := float64(n) / 8
	d := math.Abs(math.Log2(float64(chunk)) - math.Log2(opt))
	return 1e-3 * (1 + 0.25*d)
}

// driveToLock runs the propose/observe loop against the synthetic landscape
// until the tuner locks, returning the number of observations it took.
func driveToLock(t *testing.T, tn *tune.Tuner, k tune.Key) int {
	t.Helper()
	for i := 1; i <= 100; i++ {
		c := chunkOf(t, tn.Propose(k))
		tn.Observe(k, tune.Observation{Seconds: syntheticLandscape(k.N, c)})
		if tn.Converged(k) {
			return i
		}
	}
	t.Fatalf("tuner never converged for %v", k)
	return 0
}

// TestCrossSizeSeeding: a converged operating point at 2^20 must seed the
// climb at the unseen 2^21 near the scaled optimum, shortening convergence
// relative to a cold start from exec.Auto.
func TestCrossSizeSeeding(t *testing.T) {
	warm := tune.New()
	k20 := tune.Key{Site: "for_each", N: 1 << 20, Workers: 8}
	k21 := tune.Key{Site: "for_each", N: 1 << 21, Workers: 8}
	driveToLock(t, warm, k20)

	// The first proposal for the unseen size starts near the scaled
	// optimum, not back at exec.Auto.
	seed := chunkOf(t, warm.Propose(k21))
	opt := (1 << 21) / 8
	if seed < opt/2 || seed > opt*2 {
		t.Fatalf("warm seed chunk = %d, want within 2x of %d", seed, opt)
	}

	cold := tune.New()
	warmIters := driveToLock(t, warm, k21)
	coldIters := driveToLock(t, cold, k21)
	if warmIters >= coldIters {
		t.Fatalf("warm start took %d observations, cold %d; seeding must shorten the climb",
			warmIters, coldIters)
	}

	// Both must still find the same optimum: seeding biases the start, not
	// the result.
	wb, _, _ := warm.Best(k21)
	cb, _, _ := cold.Best(k21)
	if wb != cb && (wb < opt/2 || wb > opt*2) {
		t.Fatalf("warm best %d, cold best %d, optimum %d", wb, cb, opt)
	}
}

// TestCrossSizeSeedingInterpolates: with two converged sizes the seed for
// an in-between size interpolates the (log2 n, log2 chunk) ladder.
func TestCrossSizeSeedingInterpolates(t *testing.T) {
	tn := tune.New()
	driveToLock(t, tn, tune.Key{Site: "scan", N: 1 << 18, Workers: 8})
	driveToLock(t, tn, tune.Key{Site: "scan", N: 1 << 22, Workers: 8})
	seed := chunkOf(t, tn.Propose(tune.Key{Site: "scan", N: 1 << 20, Workers: 8}))
	opt := (1 << 20) / 8
	if seed < opt/2 || seed > opt*2 {
		t.Fatalf("interpolated seed = %d, want within 2x of %d", seed, opt)
	}
	// A different site or worker count must not inherit the ladder.
	other := chunkOf(t, tn.Propose(tune.Key{Site: "sort", N: 1 << 20, Workers: 8}))
	want := chunkOf(t, tune.New().Propose(tune.Key{Site: "sort", N: 1 << 20, Workers: 8}))
	if other != want {
		t.Fatalf("unrelated site seeded to %d, want auto's %d", other, want)
	}
}
