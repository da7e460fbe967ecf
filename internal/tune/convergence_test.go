package tune_test

// Deterministic convergence tests on simulated machines: the acceptance
// bar of the adaptive-grain issue. The discrete-event simulator gives a
// noiseless landscape, so the tuner must reach — within 8 repeated
// invocations — a grain whose throughput is within 10% of the best fixed
// grain found by exhaustively sweeping the power-of-two chunk ladder.
//
// GCC-HPX is the backend under test because its cost sheet has the
// strongest grain sensitivity (high per-task spawn and central-queue pop
// costs), mirroring the paper's observation that HPX's fine decomposition
// only amortizes at the right grain.

import (
	"fmt"
	"testing"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/exec"
	"pstlbench/internal/machine"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/tune"
)

// simRun executes one simulated invocation with an explicit grain.
func simRun(m *machine.Machine, b *backend.Backend, op backend.Op, n int64, threads int, g exec.Grain) simexec.Result {
	bb := *b
	bb.Grain = g
	return simexec.Run(simexec.Config{
		Machine: m, Backend: &bb,
		Workload: skeleton.Workload{Op: op, N: n, ElemBytes: 8, Kit: 1, HitFrac: 0.5},
		Threads:  threads, Alloc: allocsim.FirstTouch,
	})
}

// chunkLadder returns the power-of-two chunk sizes from one-chunk-per-worker
// down to points points.
func chunkLadder(n int64, threads, points int) []int {
	c := int((n + int64(threads) - 1) / int64(threads))
	var out []int
	for i := 0; i < points && c >= 1; i++ {
		out = append(out, c)
		c /= 2
	}
	return out
}

func TestConvergesWithinTenPercentOfSweep(t *testing.T) {
	const maxInvocations = 8
	machines := []*machine.Machine{machine.MachA(), machine.MachB()}
	ops := []backend.Op{backend.OpForEach, backend.OpReduce}
	sizes := []int64{1 << 16, 1 << 18}
	for _, m := range machines {
		for _, op := range ops {
			for _, n := range sizes {
				name := fmt.Sprintf("%s/%v/n=%d", m.Name, op, n)
				t.Run(name, func(t *testing.T) {
					b := backend.GCCHPX()
					threads := m.Cores

					// Exhaustive fixed-grain sweep over the ladder.
					bestTp := 0.0
					bestChunk := 0
					for _, c := range chunkLadder(n, threads, 6) {
						r := simRun(m, b, op, n, threads, exec.Grain{MinChunk: c, MaxChunk: c})
						if tp := float64(n) / r.Seconds; tp > bestTp {
							bestTp, bestChunk = tp, c
						}
					}
					if bestTp <= 0 {
						t.Fatal("sweep produced no throughput")
					}

					// Adaptive: repeated invocations of the same loop site.
					tn := tune.New()
					k := tune.Key{Site: name, N: int(n), Workers: threads}
					for i := 0; i < maxInvocations; i++ {
						g := tn.Propose(k)
						r := simRun(m, b, op, n, threads, g)
						obs := tune.FromCounters(r.Counters)
						obs.Seconds = r.Seconds
						tn.Observe(k, obs)
					}

					g := tn.Propose(k)
					r := simRun(m, b, op, n, threads, g)
					tp := float64(n) / r.Seconds
					if tp < 0.9*bestTp {
						t.Errorf("converged grain %+v reaches %.3g items/s, below 90%% of best fixed (chunk=%d, %.3g items/s)",
							g, tp, bestChunk, bestTp)
					}
					if !tn.Converged(k) {
						t.Errorf("tuner not converged after %d invocations", maxInvocations)
					}
				})
			}
		}
	}
}
