package experiments

import (
	"fmt"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/stream"
)

// Tab2Stream reproduces the STREAM row of Table 2: simulated single-core
// and all-core bandwidth for the three CPU machines (the GPU column is the
// device bandwidth by construction).
func Tab2Stream(cfg Config) *Report {
	t := &report.Table{
		Title:   "STREAM bandwidth, 1 core | all cores (GB/s)",
		Headers: []string{"Machine", "model 1", "model all", "paper 1", "paper all"},
	}
	paper := map[string][2]float64{
		"Mach A (Skylake)": {11.7, 135},
		"Mach B (Zen 1)":   {26.0, 204},
		"Mach C (Zen 3)":   {42.6, 249},
	}
	for _, m := range machine.CPUs() {
		t.AddRow(m.Name,
			f1(stream.Simulated(m, 1)), f1(stream.Simulated(m, m.Cores)),
			f1(paper[m.Name][0]), f1(paper[m.Name][1]))
	}
	return &Report{
		ID: "tab2", Title: "STREAM bandwidth calibration (Table 2, last row)",
		Tables: []*report.Table{t},
		Notes:  []string{"the model is calibrated so perfectly-local streams reproduce the paper's measured STREAM figures"},
	}
}

// Fig1Allocator reproduces Figure 1: the speedup of the custom parallel
// first-touch allocator over the default allocator on Mach A with 32
// threads and 2^30 elements. Values above 1.00 mean the custom allocator
// is faster. HPX is excluded: it always uses its own NUMA allocator.
func Fig1Allocator(cfg Config) *Report {
	m := machine.MachA()
	n := int64(1) << cfg.maxExp()
	backends := []*backend.Backend{backend.GCCTBB(), backend.GCCGNU(), backend.ICCTBB(), backend.NVCOMP()}
	t := &report.Table{
		Title:   fmt.Sprintf("Speedup of custom first-touch allocator vs default (Mach A, 32 threads, n=%d)", n),
		Headers: append([]string{"Backend"}, kernelLabels()...),
	}
	for _, b := range backends {
		row := []string{b.ID}
		for _, k := range kernelColumns {
			def := runCase(caseSpec{m: m, b: b, op: k.op, n: n, kit: k.kit, threads: 32, alloc: allocsim.Default}).Seconds
			ft := runCase(caseSpec{m: m, b: b, op: k.op, n: n, kit: k.kit, threads: 32, alloc: allocsim.FirstTouch}).Seconds
			row = append(row, f2(def/ft))
		}
		t.AddRow(row...)
	}
	return &Report{
		ID: "fig1", Title: "Impact of the custom parallel allocator (Figure 1)",
		Tables: []*report.Table{t},
		Notes: []string{
			"paper: for_each k=1 gains up to +63%, reduce up to +50%, sort and for_each k=1000 ~unchanged, find up to -24%, inclusive_scan up to -19%",
		},
	}
}

// problemScalingChart builds one execution-time-vs-size chart: the
// sequential baseline plus every parallel backend at full thread count.
func problemScalingChart(m *machine.Machine, op backend.Op, kit, maxExp int, elem int) *report.Chart {
	ch := &report.Chart{
		Title:  fmt.Sprintf("%s on %s (k_it=%d, %d threads)", op, m.Name, kit, m.Cores),
		XLabel: "problem size (elements)", YLabel: "time per call (s)",
		LogY: true,
	}
	sizes := sizesUpTo(maxExp)
	addSeries := func(name string, b *backend.Backend, threads int) {
		s := report.Series{Name: name}
		for _, n := range sizes {
			r := runCase(caseSpec{m: m, b: b, op: op, n: n, kit: kit, threads: threads, alloc: allocsim.FirstTouch, elem: elem})
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, r.Seconds)
		}
		ch.Series = append(ch.Series, s)
	}
	addSeries("GCC-SEQ", backend.GCCSeq(), 1)
	for _, b := range backend.Parallel() {
		if !b.AvailableOn(m.Name) {
			continue
		}
		addSeries(b.ID, b, m.Cores)
	}
	return ch
}

// strongScalingChart builds one speedup-vs-threads chart at n = 2^maxExp,
// with speedups measured against the GCC sequential baseline (log-x,
// linear-y, as the paper argues for in Section 4.2).
func strongScalingChart(m *machine.Machine, op backend.Op, kit, maxExp int) *report.Chart {
	n := int64(1) << maxExp
	ch := &report.Chart{
		Title:  fmt.Sprintf("%s strong scaling on %s (n=2^%d, k_it=%d)", op, m.Name, maxExp, kit),
		XLabel: "threads", YLabel: "speedup vs GCC-SEQ",
	}
	seq := seqBaseline(caseSpec{m: m, b: nil, op: op, n: n, kit: kit})
	ideal := report.Series{Name: "ideal"}
	for _, th := range m.ThreadCounts() {
		ideal.X = append(ideal.X, float64(th))
		ideal.Y = append(ideal.Y, float64(th))
	}
	ch.Series = append(ch.Series, ideal)
	for _, b := range backend.Parallel() {
		if !b.AvailableOn(m.Name) {
			continue
		}
		s := report.Series{Name: b.ID}
		for _, th := range m.ThreadCounts() {
			r := runCase(caseSpec{m: m, b: b, op: op, n: n, kit: kit, threads: th, alloc: allocsim.FirstTouch})
			s.X = append(s.X, float64(th))
			s.Y = append(s.Y, seq/r.Seconds)
		}
		ch.Series = append(ch.Series, s)
	}
	return ch
}

// Fig2ForEachProblem reproduces Figure 2: for_each problem scaling on the
// three CPU machines for k_it=1 and k_it=1000.
func Fig2ForEachProblem(cfg Config) *Report {
	r := &Report{ID: "fig2", Title: "X::for_each problem scaling (Figure 2)"}
	for _, m := range machine.CPUs() {
		for _, kit := range []int{1, 1000} {
			r.Charts = append(r.Charts, problemScalingChart(m, backend.OpForEach, kit, cfg.maxExp(), 8))
		}
	}
	r.Notes = append(r.Notes,
		"paper: sequential wins below ~2^10; parallel wins beyond ~2^16; NVC-OMP fastest almost everywhere; HPX slowest; GNU sequential below 2^10")
	return r
}

// Fig3ForEachStrong reproduces Figure 3: for_each strong scaling at 2^30.
func Fig3ForEachStrong(cfg Config) *Report {
	r := &Report{ID: "fig3", Title: "X::for_each strong scaling (Figure 3)"}
	for _, m := range machine.CPUs() {
		for _, kit := range []int{1, 1000} {
			r.Charts = append(r.Charts, strongScalingChart(m, backend.OpForEach, kit, cfg.maxExp()))
		}
	}
	r.Notes = append(r.Notes,
		"paper: k_it=1000 is near-ideal for all but HPX (66% efficiency on Mach C vs 79-83%); k_it=1 speedups are far from ideal and HPX plateaus beyond 16 threads")
	return r
}

// Fig4Find reproduces Figure 4: find on Mach B — (a) problem scaling with
// 64 threads, (b) strong scaling at 2^30.
func Fig4Find(cfg Config) *Report {
	m := machine.MachB()
	return &Report{
		ID: "fig4", Title: "X::find on Mach B (Figure 4)",
		Charts: []*report.Chart{
			problemScalingChart(m, backend.OpFind, 1, cfg.maxExp(), 8),
			strongScalingChart(m, backend.OpFind, 1, cfg.maxExp()),
		},
		Notes: []string{
			"paper: sequential wins below ~2^16-2^18; max speedup ~6 (GCC-TBB), consistent with the STREAM ratio ~7.8; GNU switches to parallel at 2^9",
		},
	}
}

// Fig5InclusiveScan reproduces Figure 5: inclusive_scan on Mach C — (a)
// problem scaling with 128 threads, (b) strong scaling at 2^30.
func Fig5InclusiveScan(cfg Config) *Report {
	m := machine.MachC()
	return &Report{
		ID: "fig5", Title: "X::inclusive_scan on Mach C (Figure 5)",
		Charts: []*report.Chart{
			problemScalingChart(m, backend.OpInclusiveScan, 1, cfg.maxExp(), 8),
			strongScalingChart(m, backend.OpInclusiveScan, 1, cfg.maxExp()),
		},
		Notes: []string{
			"paper: sequential (incl. NVC-OMP's fallback) wins up to ~L2/LLC capacity; TBB backends win beyond the LLC and reach speedup ~5; GNU has no parallel scan; HPX does not scale",
		},
	}
}

// Fig6Reduce reproduces Figure 6: reduce on Mach A — (a) problem scaling
// with 32 threads, (b) strong scaling at 2^30.
func Fig6Reduce(cfg Config) *Report {
	m := machine.MachA()
	return &Report{
		ID: "fig6", Title: "X::reduce on Mach A (Figure 6)",
		Charts: []*report.Chart{
			problemScalingChart(m, backend.OpReduce, 1, cfg.maxExp(), 8),
			strongScalingChart(m, backend.OpReduce, 1, cfg.maxExp()),
		},
		Notes: []string{
			"paper: crossover ~2^15; NVC-OMP/GCC-TBB/GCC-GNU form the faster group; ICC-TBB and HPX scale well only to 16 threads (one NUMA node)",
		},
	}
}

// Fig7Sort reproduces Figure 7: sort on Mach C — (a) problem scaling with
// 32 threads, (b) strong scaling at 2^30.
func Fig7Sort(cfg Config) *Report {
	m := machine.MachC()
	ch := problemScalingChart(m, backend.OpSort, 1, cfg.maxExp(), 8)
	// The paper's Fig 7a uses 32 threads on the 128-core machine.
	ch32 := &report.Chart{Title: ch.Title, XLabel: ch.XLabel, YLabel: ch.YLabel, LogY: true}
	sizes := sizesUpTo(cfg.maxExp())
	add := func(name string, b *backend.Backend, threads int) {
		s := report.Series{Name: name}
		for _, n := range sizes {
			r := runCase(caseSpec{m: m, b: b, op: backend.OpSort, n: n, threads: threads, alloc: allocsim.FirstTouch})
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, r.Seconds)
		}
		ch32.Series = append(ch32.Series, s)
	}
	ch32.Title = fmt.Sprintf("sort on %s (32 threads)", m.Name)
	add("GCC-SEQ", backend.GCCSeq(), 1)
	for _, b := range backend.Parallel() {
		if b.AvailableOn(m.Name) {
			add(b.ID, b, 32)
		}
	}
	return &Report{
		ID: "fig7", Title: "X::sort on Mach C (Figure 7)",
		Charts: []*report.Chart{ch32, strongScalingChart(m, backend.OpSort, 1, cfg.maxExp())},
		Notes: []string{
			"paper: TBB sequential below 2^9, HPX single-threaded below 2^15; NVC-OMP fastest at low thread counts; GNU's multiway mergesort most efficient at high thread counts",
		},
	}
}
