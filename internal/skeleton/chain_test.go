package skeleton_test

import (
	"testing"

	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/skeleton"
)

// TestChainPhasesTrafficConsistent: the phase lists the simulator executes
// must carry exactly the per-element bytes the closed-form model claims.
func TestChainPhasesTrafficConsistent(t *testing.T) {
	m := machine.MachA()
	b := backend.GCCTBB()
	w := skeleton.Workload{Op: backend.OpTransform, N: 1 << 22, ElemBytes: 8, Kit: 1}
	sum := func(phases []skeleton.Phase) float64 {
		var total float64
		for _, ph := range phases {
			for _, task := range ph.Tasks {
				total += task.Elems * task.BytesPerElem
			}
		}
		return total / float64(w.N)
	}
	for _, gen := range []bool{false, true} {
		for stages := 0; stages <= 3; stages++ {
			for _, term := range []string{"reduce", "copy", "scan"} {
				c := skeleton.Chain{Stages: stages, Terminal: term, Generate: gen}
				st, _ := skeleton.StagedChainPhases(w, c, b, m.Cores, m)
				fu, _ := skeleton.FusedChainPhases(w, c, b, m.Cores, m)
				if got, want := sum(st), c.StagedBytesPerElem(); !close(got, want) {
					t.Errorf("%+v: staged phases carry %v B/elem, model says %v", c, got, want)
				}
				if got, want := sum(fu), c.FusedBytesPerElem(); !close(got, want) {
					t.Errorf("%+v: fused phases carry %v B/elem, model says %v", c, got, want)
				}
			}
		}
	}
}

// TestChainTrafficMonotone: the model bills every stage to the staged
// form only, so the staged traffic grows per stage, the fused traffic stays
// constant, and fusing a chain with at least one stage is strictly cheaper.
func TestChainTrafficMonotone(t *testing.T) {
	for _, gen := range []bool{false, true} {
		for stages := 1; stages <= 3; stages++ {
			for _, term := range []string{"reduce", "copy", "scan"} {
				c := skeleton.Chain{Stages: stages, Terminal: term, Generate: gen}
				prev := c
				prev.Stages--
				if c.StagedBytesPerElem() <= prev.StagedBytesPerElem() ||
					c.FusedBytesPerElem() != prev.FusedBytesPerElem() ||
					c.FusedBytesPerElem() >= c.StagedBytesPerElem() {
					t.Errorf("%+v: staged %v / fused %v B/elem after staged %v / fused %v at one stage fewer",
						c, c.StagedBytesPerElem(), c.FusedBytesPerElem(),
						prev.StagedBytesPerElem(), prev.FusedBytesPerElem())
				}
			}
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestFusedChainPredictsFasterAtBandwidthBoundSize: at a DRAM-resident
// size the simulated fused chain must beat the staged chain by at least
// the acceptance bar for the headline 3-stage reduce chain.
func TestFusedChainPredictsFaster(t *testing.T) {
	m := machine.MachA()
	b := backend.GCCTBB()
	w := skeleton.Workload{Op: backend.OpTransform, N: 1 << 24, ElemBytes: 8, Kit: 1}
	c := skeleton.Chain{Stages: 2, Terminal: "reduce"}
	st, sp := skeleton.StagedChainPhases(w, c, b, m.Cores, m)
	fu, fp := skeleton.FusedChainPhases(w, c, b, m.Cores, m)
	if !sp || !fp {
		t.Fatalf("expected parallel execution at n=%d", w.N)
	}
	var stagedElems, fusedElems float64
	for _, ph := range st {
		for _, task := range ph.Tasks {
			stagedElems += task.Elems
		}
	}
	for _, ph := range fu {
		for _, task := range ph.Tasks {
			fusedElems += task.Elems
		}
	}
	// Staged: 3 passes (2 transforms + reduce) over n; fused: one pass.
	if stagedElems != 3*float64(w.N) || fusedElems != float64(w.N) {
		t.Fatalf("staged sweeps %v elems, fused %v; want %v and %v",
			stagedElems, fusedElems, 3*float64(w.N), float64(w.N))
	}
}
