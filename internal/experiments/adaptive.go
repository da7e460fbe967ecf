package experiments

import (
	"fmt"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/exec"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/tune"
)

// adaptiveInvocations is the repeated-invocation budget the acceptance
// criterion allows the tuner before it must be within 10% of the sweep.
const adaptiveInvocations = 8

// ExtensionAdaptive is an extension beyond the paper: it closes the loop
// on the paper's central chunking observation by letting the adaptive
// grain tuner (internal/tune) pick the chunk size online, and compares the
// converged operating point against an exhaustive fixed-grain sweep and
// against the backend's own default grain. GCC-HPX is the backend under
// test — the cost sheet with the strongest grain sensitivity (per-future
// spawn cost plus central-queue pops), mirroring the paper's observation
// that HPX's fine decomposition only amortizes at the right grain — shown
// on a 2-node Skylake (Mach A) and an 8-node Zen1 (Mach B).
func ExtensionAdaptive(cfg Config) *Report {
	n := int64(1) << (cfg.maxExp() - 6)
	rep := &Report{
		ID:    "ext-adaptive",
		Title: fmt.Sprintf("Adaptive grain auto-tuning: converged vs fixed grain (Mach A/B, GCC-HPX, n=%d)", n),
	}
	ops := []struct {
		op   backend.Op
		name string
	}{
		{backend.OpForEach, "for_each"},
		{backend.OpReduce, "reduce"},
	}
	for _, m := range []*machine.Machine{machine.MachA(), machine.MachB()} {
		threads := m.Cores
		for _, o := range ops {
			// Exhaustive fixed-grain sweep over the power-of-two chunk
			// ladder, from one chunk per worker downwards.
			t := &report.Table{
				Title:   fmt.Sprintf("%s, %s n=%d, %d threads: fixed-grain sweep", m.Name, o.name, n, threads),
				Headers: []string{"chunk", "chunks", "time", "items/s"},
			}
			bestTp, bestChunk := 0.0, 0
			for _, c := range adaptiveLadder(n, threads, 6) {
				r := runGrainCase(m, o.op, n, threads, exec.Grain{MinChunk: c, MaxChunk: c})
				tp := float64(n) / r.Seconds
				if tp > bestTp {
					bestTp, bestChunk = tp, c
				}
				t.AddRow(fmt.Sprintf("%d", c),
					fmt.Sprintf("%d", (n+int64(c)-1)/int64(c)),
					fmt.Sprintf("%.3gs", r.Seconds), f1(tp))
			}
			rep.Tables = append(rep.Tables, t)

			// Adaptive: repeated invocations of one loop site, observations
			// fed from the simulator's modeled scheduler counters.
			tn := tune.New()
			key := tune.Key{Site: fmt.Sprintf("%s/%s", o.name, m.Name), N: int(n), Workers: threads}
			var iters, tps []float64
			converged := 0
			for i := 1; i <= adaptiveInvocations; i++ {
				g := tn.Propose(key)
				r := runGrainCase(m, o.op, n, threads, g)
				obs := tune.FromCounters(r.Counters)
				obs.Seconds = r.Seconds
				tn.Observe(key, obs)
				iters = append(iters, float64(i))
				tps = append(tps, float64(n)/r.Seconds)
				if converged == 0 && tn.Converged(key) {
					converged = i
				}
			}
			gConv := tn.Propose(key)
			rConv := runGrainCase(m, o.op, n, threads, gConv)
			tpConv := float64(n) / rConv.Seconds
			rDef := runGrainCase(m, o.op, n, threads, backend.GCCHPX().Grain)
			tpDef := float64(n) / rDef.Seconds

			best := make([]float64, len(iters))
			for i := range best {
				best[i] = bestTp
			}
			rep.Charts = append(rep.Charts, &report.Chart{
				Title:  fmt.Sprintf("%s %s: tuner convergence (n=%d, %d threads)", m.Name, o.name, n, threads),
				XLabel: "invocation",
				YLabel: "items/s",
				Series: []report.Series{
					{Name: "adaptive", X: iters, Y: tps},
					{Name: "best fixed", X: iters, Y: best},
				},
			})
			chunkConv, _, _ := tn.Best(key)
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s %s: converged after %d invocations to chunk=%d at %.1f%% of the best fixed grain (chunk=%d); the backend's default grain reaches %.1f%%",
				m.Name, o.name, converged, chunkConv,
				100*tpConv/bestTp, bestChunk, 100*tpDef/bestTp))
		}
	}
	rep.Notes = append(rep.Notes,
		"observations come from the simulator's modeled scheduler counters (tune.FromCounters); the central-queue backend reports every dispatch as a local steal, so the climb is throughput-driven with the steal mix as a tie-breaker")
	return rep
}

// runGrainCase simulates one GCC-HPX invocation with an explicit grain.
func runGrainCase(m *machine.Machine, op backend.Op, n int64, threads int, g exec.Grain) simexec.Result {
	b := backend.GCCHPX()
	b.Grain = g
	return simexec.Run(simexec.Config{
		Machine: m, Backend: b,
		Workload: skeleton.Workload{Op: op, N: n, ElemBytes: 8, Kit: 1, HitFrac: 0.5},
		Threads:  threads, Alloc: allocsim.FirstTouch,
	})
}

// adaptiveLadder returns the power-of-two chunk ladder from one chunk per
// worker down to points points.
func adaptiveLadder(n int64, threads, points int) []int {
	c := int((n + int64(threads) - 1) / int64(threads))
	var out []int
	for i := 0; i < points && c >= 1; i++ {
		out = append(out, c)
		c /= 2
	}
	return out
}
