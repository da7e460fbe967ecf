package experiments

import (
	"fmt"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
)

// ExtensionFusion is an extension beyond the paper: it predicts the win of
// fusing element-wise pipeline chains (internal/pipeline) into one
// chunk-granular pass. The discrete-event simulator executes staged and
// fused chain skeletons (simexec.RunChain) on Mach A / GCC-TBB at a
// bandwidth-bound size, predicting the DRAM-traffic drop and the time
// ratio — a 3-stage reduce-terminated chain should cut traffic ~7x and
// time toward the traffic ratio as the chain becomes memory-bound. The
// native counterparts are measured elsewhere: the chain entries of the
// kernel table (BenchmarkNativeKernels/chain_*, `pstlbench -mode native
// -algo chains`).
func ExtensionFusion(cfg Config) *Report {
	m := machine.MachA()
	b := backend.GCCTBB()
	threads := m.Cores
	n := int64(1) << (cfg.maxExp() - 6) // 2^24 at full scale: past LLC
	w := skeleton.Workload{Op: backend.OpTransform, N: n, ElemBytes: 8, Kit: 1}
	sim := simexec.Config{Machine: m, Backend: b, Workload: w, Threads: threads, Alloc: allocsim.FirstTouch}

	t := &report.Table{
		Title: fmt.Sprintf("%s, GCC-TBB, %d threads, n=%d: simulated staged vs fused chains",
			m.Name, threads, n),
		Headers: []string{"chain", "B/elem staged", "B/elem fused", "traffic ratio",
			"staged time", "fused time", "predicted speedup"},
	}
	headlineChain := skeleton.Chain{Stages: 2, Terminal: "reduce"}
	var headline float64
	for _, fc := range []struct {
		name  string
		chain skeleton.Chain
	}{
		{"from+2map+reduce", headlineChain},
		{"gen+2map+reduce", skeleton.Chain{Stages: 2, Terminal: "reduce", Generate: true}},
		{"from+2map+copy", skeleton.Chain{Stages: 2, Terminal: "copy"}},
		{"from+2map+scan", skeleton.Chain{Stages: 2, Terminal: "scan"}},
	} {
		staged := simexec.RunChain(sim, fc.chain, false)
		fused := simexec.RunChain(sim, fc.chain, true)
		sb := fc.chain.StagedBytesPerElem()
		fb := fc.chain.FusedBytesPerElem()
		sp := staged.Seconds / fused.Seconds
		if fc.chain == headlineChain {
			headline = sp
		}
		ratioCell := "inf"
		if fb > 0 {
			ratioCell = fmt.Sprintf("%.1fx", sb/fb)
		}
		t.AddRow(fc.name, f1(sb), f1(fb), ratioCell,
			fmt.Sprintf("%.3gs", staged.Seconds), fmt.Sprintf("%.3gs", fused.Seconds),
			fmt.Sprintf("%.2fx", sp))
	}
	return &Report{
		ID:     "ext-fusion",
		Title:  "Fused pipeline chains: predicted traffic drop and speedup of one fused pass",
		Tables: []*report.Table{t},
		Notes: []string{fmt.Sprintf(
			"prediction: the 3-stage reduce chain cuts per-element traffic from %g to %g bytes (write-allocate accounting) and the simulator predicts a %.2fx speedup at the bandwidth-bound size — the ceiling for the measured native speedup (BenchmarkNativeKernels/chain_*, pstlbench -algo chains)",
			headlineChain.StagedBytesPerElem(), headlineChain.FusedBytesPerElem(), headline)},
	}
}
