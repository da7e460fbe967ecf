package core

import (
	"math/rand"
	"testing"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

// policyCase is one cell of the execution-policy test matrix. Every
// algorithm test runs under the sequential policy and under each pool
// strategy with both coarse and fine grains, so a scheduling bug in any
// strategy/grain combination fails the whole suite.
type policyCase struct {
	name string
	mk   func(t *testing.T) Policy
}

func poolPolicy(strategy native.Strategy, workers int, g exec.Grain) func(t *testing.T) Policy {
	return func(t *testing.T) Policy {
		t.Helper()
		p := native.New(workers, strategy)
		t.Cleanup(p.Close)
		return Par(p).WithGrain(g)
	}
}

func policyMatrix() []policyCase {
	return []policyCase{
		{"seq", func(*testing.T) Policy { return Seq() }},
		{"forkjoin/static", poolPolicy(native.StrategyForkJoin, 4, exec.Static)},
		{"stealing/auto", poolPolicy(native.StrategyStealing, 4, exec.Auto)},
		{"centralqueue/fine", poolPolicy(native.StrategyCentralQueue, 4, exec.Fine)},
		{"stealing/fine3w", poolPolicy(native.StrategyStealing, 3, exec.Fine)},
		// Below twice its MinChunk the grain yields one chunk, which the
		// pool runs inline on the caller: the small-input threshold, set
		// through the grain.
		{"forkjoin/threshold", poolPolicy(native.StrategyForkJoin, 4, exec.Grain{ChunksPerWorker: 1, MinChunk: 64})},
	}
}

// forEachPolicy runs fn once per policy-matrix cell as a subtest.
func forEachPolicy(t *testing.T, fn func(t *testing.T, p Policy)) {
	t.Helper()
	for _, pc := range policyMatrix() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			fn(t, pc.mk(t))
		})
	}
}

// testSizes are the input sizes exercised by most algorithm tests: empty,
// singleton, sub-chunk, around chunk boundaries, and big enough for real
// parallelism.
var testSizes = []int{0, 1, 2, 3, 7, 63, 64, 65, 1000, 4096, 10000}

func randomInts(rng *rand.Rand, n, max int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = rng.Intn(max)
	}
	return s
}

func iota(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intLess(a, b int) bool { return a < b }
