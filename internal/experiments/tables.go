package experiments

import (
	"fmt"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/counters"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/stats"
)

// counterTable renders a Table 3/4-style Likwid report for 100 calls of op
// on Mach A with 32 threads.
func counterTable(op backend.Op, kit int, cfg Config, title string) *report.Table {
	m := machine.MachA()
	n := int64(1) << cfg.maxExp()
	const calls = 100
	t := &report.Table{
		Title:   fmt.Sprintf("%s (n=%d, %d calls, Mach A, 32 threads)", title, n, calls),
		Headers: []string{"Metric", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP"},
	}
	var sets []counters.Set
	for _, b := range backend.Parallel() {
		r := runCase(caseSpec{m: m, b: b, op: op, n: n, kit: kit, threads: 32, alloc: allocsim.FirstTouch})
		sets = append(sets, r.Counters.Scale(calls))
	}
	row := func(metric string, get func(counters.Set) string) {
		cells := []string{metric}
		for _, s := range sets {
			cells = append(cells, get(s))
		}
		t.AddRow(cells...)
	}
	row("Instructions", func(s counters.Set) string { return counters.SI(s.Instructions) })
	row("FP scalar", func(s counters.Set) string { return counters.SI(s.FPScalar) })
	row("FP 128-bit packed", func(s counters.Set) string { return counters.SI(s.FP128) })
	row("FP 256-bit packed", func(s counters.Set) string { return counters.SI(s.FP256) })
	row("GFLOP/s", func(s counters.Set) string { return f2(s.GFlopsPerSec()) })
	row("Mem. bandwidth (GiB/s)", func(s counters.Set) string { return f1(s.BandwidthGiBs()) })
	row("Mem. data volume (GiB)", func(s counters.Set) string { return f1(s.DataVolumeGiB()) })
	return t
}

// Tab3ForEachCounters reproduces Table 3: counters for 100 calls of
// for_each (k_it = 1) on Mach A.
func Tab3ForEachCounters(cfg Config) *Report {
	return &Report{
		ID: "tab3", Title: "Executed instructions, X::for_each k_it=1 (Table 3)",
		Tables: []*report.Table{counterTable(backend.OpForEach, 1, cfg, "X::for_each counters")},
		Notes: []string{
			"paper instr/elem: GCC-TBB 16.0, GCC-GNU 22.4, GCC-HPX 35.7, ICC-TBB 14.4, NVC-OMP 20.9; FP scalar 107G per 100 calls for all backends",
		},
	}
}

// Tab4ReduceCounters reproduces Table 4: counters for 100 calls of reduce
// on Mach A. Only ICC-TBB and GCC-HPX vectorize (FP 256-bit packed).
func Tab4ReduceCounters(cfg Config) *Report {
	return &Report{
		ID: "tab4", Title: "Executed instructions, X::reduce (Table 4)",
		Tables: []*report.Table{counterTable(backend.OpReduce, 1, cfg, "X::reduce counters")},
		Notes: []string{
			"paper: HPX executes up to 6x more instructions; HPX and ICC use 256-bit vector FP, the rest are scalar",
		},
	}
}

// kernelColumns are the benchmark columns of Figure 1 and Tables 5 and 6.
var kernelColumns = []struct {
	label string
	op    backend.Op
	kit   int
}{
	{"find", backend.OpFind, 1},
	{"for_each k=1", backend.OpForEach, 1},
	{"for_each k=1000", backend.OpForEach, 1000},
	{"inclusive_scan", backend.OpInclusiveScan, 1},
	{"reduce", backend.OpReduce, 1},
	{"sort", backend.OpSort, 1},
}

// speedupCell computes one Table 5 cell: speedup vs GCC-SEQ with all
// cores at n = 2^maxExp, or "N/A" when the backend is unavailable.
func speedupCell(m *machine.Machine, b *backend.Backend, op backend.Op, kit int, n int64) string {
	if !b.AvailableOn(m.Name) {
		return "N/A"
	}
	seq := seqBaseline(caseSpec{m: m, op: op, n: n, kit: kit})
	par := runCase(caseSpec{m: m, b: b, op: op, n: n, kit: kit, threads: m.Cores, alloc: allocsim.FirstTouch}).Seconds
	return f1(seq / par)
}

// Tab5Speedups reproduces Table 5: speedup against GCC's sequential
// implementation on Mach A/B/C with all cores, problem size 2^30.
func Tab5Speedups(cfg Config) *Report {
	n := int64(1) << cfg.maxExp()
	t := &report.Table{
		Title:   fmt.Sprintf("Speedup vs GCC-SEQ, all cores, n=%d (cells: Mach A | Mach B | Mach C)", n),
		Headers: append([]string{"Backend"}, kernelLabels()...),
	}
	for _, b := range backend.Parallel() {
		row := []string{b.ID}
		for _, k := range kernelColumns {
			cell := ""
			for i, m := range machine.CPUs() {
				if i > 0 {
					cell += " | "
				}
				cell += speedupCell(m, b, k.op, k.kit, n)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return &Report{
		ID: "tab5", Title: "Speedups against GCC-SEQ (Table 5)",
		Tables: []*report.Table{t},
	}
}

func kernelLabels() []string {
	out := make([]string, len(kernelColumns))
	for i, k := range kernelColumns {
		out[i] = k.label
	}
	return out
}

// Tab6Efficiency reproduces Table 6: the maximum number of threads whose
// parallel efficiency vs the sequential execution stays at or above 70 %.
func Tab6Efficiency(cfg Config) *Report {
	n := int64(1) << cfg.maxExp()
	t := &report.Table{
		Title:   fmt.Sprintf("Max threads with efficiency >= 70%%, n=%d (cells: Mach A | Mach B | Mach C)", n),
		Headers: append([]string{"Backend"}, kernelLabels()...),
	}
	for _, b := range backend.Parallel() {
		row := []string{b.ID}
		for _, k := range kernelColumns {
			cell := ""
			for i, m := range machine.CPUs() {
				if i > 0 {
					cell += " | "
				}
				if !b.AvailableOn(m.Name) {
					cell += "N/A"
					continue
				}
				seq := seqBaseline(caseSpec{m: m, op: k.op, n: n, kit: k.kit})
				var ths []int
				var sps []float64
				for _, th := range m.ThreadCounts() {
					par := runCase(caseSpec{m: m, b: b, op: k.op, n: n, kit: k.kit, threads: th, alloc: allocsim.FirstTouch}).Seconds
					ths = append(ths, th)
					sps = append(sps, seq/par)
				}
				cell += fmt.Sprintf("%d", stats.MaxThreadsAtEfficiency(ths, sps, 0.70))
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return &Report{
		ID: "tab6", Title: "Threads usable at >= 70% efficiency (Table 6)",
		Tables: []*report.Table{t},
		Notes: []string{
			"paper: backends typically fail beyond 16 threads — the cores of one NUMA node — except for the compute-bound for_each k_it=1000",
		},
	}
}

// Tab7BinarySizes reproduces Table 7: binary sizes per compiler/backend.
// The sizes are the modeled runtime-library footprints recorded in the
// backend cost sheets (a static property, not a simulation).
func Tab7BinarySizes(cfg Config) *Report {
	t := &report.Table{
		Title:   "Binary sizes (MiB), Mach A target (NVC-CUDA: Mach D target)",
		Headers: []string{"Compiler-Backend", "Bin. size (MiB)"},
	}
	order := []string{"GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP", "NVC-CUDA"}
	for _, id := range order {
		b := backend.ByID(id)
		t.AddRow(b.ID, f2(b.BinMiB))
	}
	return &Report{
		ID: "tab7", Title: "Binary sizes (Table 7)",
		Tables: []*report.Table{t},
		Notes: []string{
			"modeled footprints reproduce the paper's measurements exactly: the HPX runtime dominates at ~62 MiB, NVC-OMP is smallest at 1.81 MiB",
		},
	}
}
