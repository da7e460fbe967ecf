package experiments

import (
	"fmt"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
)

// ExtensionARM implements the paper's stated future work: predict the
// backend comparison on an ARM server (Mach F, a Graviton3-class
// single-socket Neoverse V1). The interesting hypothesis the model can
// test: on a flat (single-NUMA-node) machine with a high per-core
// bandwidth share, the placement-sensitivity differences between backends
// largely vanish, and the ranking collapses to pure scheduling overhead.
func ExtensionARM(cfg Config) *Report {
	m := machine.MachF()
	n := int64(1) << cfg.maxExp()
	t := &report.Table{
		Title:   fmt.Sprintf("Predicted speedup vs GCC-SEQ on %s (%d cores, 1 NUMA node), n=%d", m.Name, m.Cores, n),
		Headers: append([]string{"Backend"}, kernelLabels()...),
	}
	for _, b := range backend.Parallel() {
		row := []string{b.ID}
		for _, k := range kernelColumns {
			row = append(row, speedupCell(m, b, k.op, k.kit, n))
		}
		t.AddRow(row...)
	}

	// The allocator experiment on a single-node machine is the control
	// case: first-touch cannot help when there is only one node.
	ta := &report.Table{
		Title:   "Allocator speedup on Mach F (single node): expected ~1.00 everywhere",
		Headers: append([]string{"Backend"}, kernelLabels()...),
	}
	for _, b := range []*backend.Backend{backend.GCCTBB(), backend.NVCOMP()} {
		row := []string{b.ID}
		for _, k := range kernelColumns {
			def := runCase(caseSpec{m: m, b: b, op: k.op, n: n, kit: k.kit, threads: m.Cores, alloc: allocsim.Default}).Seconds
			ft := runCase(caseSpec{m: m, b: b, op: k.op, n: n, kit: k.kit, threads: m.Cores, alloc: allocsim.FirstTouch}).Seconds
			row = append(row, f2(def/ft))
		}
		ta.AddRow(row...)
	}
	return &Report{
		ID: "ext-arm", Title: "Extension: predicted backend comparison on ARM (paper future work)",
		Tables: []*report.Table{t, ta},
		Notes: []string{
			"prediction, not a reproduction: no published ARM measurements exist in the paper",
			"single NUMA node: memory-bound ceilings rise to the raw STREAM ratio (~10.7x) and the allocator becomes irrelevant — backend ranking is set by scheduling overhead alone",
		},
	}
}
