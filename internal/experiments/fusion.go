package experiments

import (
	"fmt"
	"time"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/core"
	"pstlbench/internal/machine"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
	"pstlbench/internal/report"
	"pstlbench/internal/serve"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/stats"
)

// ExtensionFusion is an extension beyond the paper: it quantifies the win
// of fusing element-wise pipeline chains (internal/pipeline) into one
// chunk-granular pass, and of coalescing small jobs into batched pool
// submissions (internal/serve). Three parts:
//
//  1. Prediction: the discrete-event simulator executes staged and fused
//     chain skeletons (skeleton.StagedChainPhases / FusedChainPhases) on
//     the modeled machine, predicting the DRAM-traffic drop and the time
//     ratio at bandwidth-bound sizes — a 3-stage reduce-terminated chain
//     should cut traffic ~7x and time toward the traffic ratio as the
//     chain becomes memory-bound.
//  2. Measurement: the same chains run natively — separate core.* passes
//     with a materialized intermediate vs one pipeline.Sum pass — on the
//     real pool. The acceptance bar is a >= 2x wall-time reduction for
//     the 3-stage chain.
//  3. Batching: per-job overhead of flooding a Server with small jobs,
//     individual dispatch vs the batched small-job fast path.
func ExtensionFusion(cfg Config) *Report {
	rep := &Report{
		ID:    "ext-fusion",
		Title: "Fused pipeline chains: predicted traffic drop vs measured native win, plus batched small-job dispatch",
	}
	fusionPredicted(cfg, rep)
	fusionMeasured(cfg, rep)
	fusionBatched(cfg, rep)
	return rep
}

// fusionChain names one modeled/measured chain shape.
type fusionChain struct {
	name  string
	chain skeleton.Chain
}

func fusionChains() []fusionChain {
	return []fusionChain{
		{"from+2map+reduce", skeleton.Chain{Stages: 2, Terminal: "reduce"}},
		{"gen+2map+reduce", skeleton.Chain{Stages: 2, Terminal: "reduce", Generate: true}},
		{"from+2map+copy", skeleton.Chain{Stages: 2, Terminal: "copy"}},
		{"from+2map+scan", skeleton.Chain{Stages: 2, Terminal: "scan"}},
	}
}

// fusionPredicted runs the staged and fused skeletons through the
// simulator on Mach A / GCC-TBB at a bandwidth-bound size.
func fusionPredicted(cfg Config, rep *Report) {
	m := machine.MachA()
	b := backend.GCCTBB()
	threads := m.Cores
	n := int64(1) << (cfg.maxExp() - 6) // 2^24 at full scale: past LLC
	w := skeleton.Workload{Op: backend.OpTransform, N: n, ElemBytes: 8, Kit: 1}

	t := &report.Table{
		Title: fmt.Sprintf("%s, GCC-TBB, %d threads, n=%d: simulated staged vs fused chains",
			m.Name, threads, n),
		Headers: []string{"chain", "B/elem staged", "B/elem fused", "traffic ratio",
			"staged time", "fused time", "predicted speedup"},
	}
	var headline float64
	for _, fc := range fusionChains() {
		staged := runChainSim(m, b, w, fc.chain, threads, false)
		fused := runChainSim(m, b, w, fc.chain, threads, true)
		sb := fc.chain.StagedBytesPerElem()
		fb := fc.chain.FusedBytesPerElem()
		ratio := 0.0
		if fb > 0 {
			ratio = sb / fb
		}
		sp := staged.Seconds / fused.Seconds
		if fc.name == "from+2map+reduce" {
			headline = sp
		}
		ratioCell := "inf"
		if ratio > 0 {
			ratioCell = fmt.Sprintf("%.1fx", ratio)
		}
		t.AddRow(fc.name, f1(sb), f1(fb), ratioCell,
			fmt.Sprintf("%.3gs", staged.Seconds), fmt.Sprintf("%.3gs", fused.Seconds),
			fmt.Sprintf("%.2fx", sp))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"prediction: the 3-stage reduce chain cuts per-element traffic from %g to %g bytes (write-allocate accounting) and the simulator predicts a %.2fx speedup at the bandwidth-bound size — the ceiling the measured run below is compared against",
		skeleton.Chain{Stages: 2, Terminal: "reduce"}.StagedBytesPerElem(),
		skeleton.Chain{Stages: 2, Terminal: "reduce"}.FusedBytesPerElem(), headline))
}

func runChainSim(m *machine.Machine, b *backend.Backend, w skeleton.Workload,
	c skeleton.Chain, threads int, fused bool) simexec.Result {
	var phases []skeleton.Phase
	var parallel bool
	if fused {
		phases, parallel = skeleton.FusedChainPhases(w, c, b, threads, m)
	} else {
		phases, parallel = skeleton.StagedChainPhases(w, c, b, threads, m)
	}
	return simexec.RunPhases(simexec.Config{
		Machine: m, Backend: b, Workload: w,
		Threads: threads, Alloc: allocsim.FirstTouch,
	}, phases, skeleton.ChainWorkingSet(w, c, fused), parallel)
}

// fusionMeasured times the 3-stage sum chain natively: staged core passes
// vs the fused pipeline, slice and generated sources.
func fusionMeasured(cfg Config, rep *Report) {
	n := 1 << 22
	reps := 5
	if cfg.Scale >= 8 { // quick/CI runs
		n = 1 << 18
		reps = 3
	}
	pool := native.New(0, native.StrategyStealing)
	defer pool.Close()
	p := core.Par(pool)

	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i % 4096)
	}
	tmp := make([]float64, n)
	gen := func(i int) float64 { return float64((uint64(i+1) * 6364136223846793005) >> 40) }
	f := func(v float64) float64 { return v*3 + 1 }
	g := func(v float64) float64 { return v * 0.5 }

	type variant struct {
		name          string
		staged, fused func() float64
		chain         skeleton.Chain
	}
	variants := []variant{
		{
			name: "from+2map+sum",
			staged: func() float64 {
				core.Transform(p, tmp, src, f)
				core.Transform(p, tmp, tmp, g)
				return core.Sum(p, tmp, 0)
			},
			fused: func() float64 {
				return pipeline.Sum(p, pipeline.From(src).Transform(f).Transform(g), 0)
			},
			chain: skeleton.Chain{Stages: 2, Terminal: "reduce"},
		},
		{
			name: "gen+2map+sum",
			staged: func() float64 {
				core.Generate(p, tmp, gen)
				core.Transform(p, tmp, tmp, f)
				core.Transform(p, tmp, tmp, g)
				return core.Sum(p, tmp, 0)
			},
			fused: func() float64 {
				return pipeline.Sum(p, pipeline.Generate(n, gen).Transform(f).Transform(g), 0)
			},
			chain: skeleton.Chain{Stages: 2, Terminal: "reduce", Generate: true},
		},
	}

	t := &report.Table{
		Title: fmt.Sprintf("native, %d workers, n=%d: measured staged vs fused (median of %d)",
			pool.Workers(), n, reps),
		Headers: []string{"chain", "staged", "fused", "measured speedup", "traffic model"},
	}
	var headline float64
	for _, v := range variants {
		sv := v.staged()
		fv := v.fused()
		if diff := sv - fv; diff < -1e-6*sv || diff > 1e-6*sv {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"WARNING %s: fused result %g differs from staged %g", v.name, fv, sv))
		}
		ts := medianSeconds(v.staged, reps)
		tf := medianSeconds(v.fused, reps)
		sp := ts / tf
		if v.name == "from+2map+sum" {
			headline = sp
		}
		fb := v.chain.FusedBytesPerElem()
		trafficCell := fmt.Sprintf("%.0f->%.0f B/elem", v.chain.StagedBytesPerElem(), fb)
		t.AddRow(v.name, fmt.Sprintf("%.3gs", ts), fmt.Sprintf("%.3gs", tf),
			fmt.Sprintf("%.2fx", sp), trafficCell)
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"measured: the 3-stage slice-source chain runs %.2fx faster fused (acceptance bar: 2x); the win combines the modeled traffic drop with one loop's worth of per-element call overhead instead of three",
		headline))
}

func medianSeconds(fn func() float64, reps int) float64 {
	var sink float64
	samples := make([]float64, reps)
	for i := range samples {
		start := time.Now()
		sink += fn()
		samples[i] = time.Since(start).Seconds()
	}
	_ = sink
	return stats.Median(samples)
}

// fusionBatched measures per-job overhead of a small-job flood with the
// batched fast path off vs on.
func fusionBatched(cfg Config, rep *Report) {
	jobs := 256
	if cfg.Scale >= 8 {
		jobs = 64
	}
	const nJob = 1 << 12
	perJob := func(smallMax int) float64 {
		s := serve.New(serve.Config{
			Workers: 4, MaxConcurrent: 1, QueueCap: jobs + 8,
			SmallJobMax: smallMax,
		})
		defer s.Close()
		// A short blocker lets the queue fill before dispatch decisions run.
		hold, err := s.Submit(serve.Spec{Kernel: "sort", N: 1 << 15, Tenant: "hold"})
		if err != nil {
			panic(err)
		}
		batch := make([]*serve.Job, 0, jobs)
		for i := 0; i < jobs; i++ {
			j, err := s.Submit(serve.Spec{Kernel: "reduce", N: nJob, Tenant: "t"})
			if err != nil {
				panic(err)
			}
			batch = append(batch, j)
		}
		<-hold.Done()
		start := time.Now()
		for _, j := range batch {
			<-j.Done()
		}
		return time.Since(start).Seconds() / float64(jobs)
	}
	indiv := perJob(0)
	batched := perJob(1 << 14)
	t := &report.Table{
		Title:   fmt.Sprintf("serve: %d jobs of reduce n=%d behind one slot", jobs, nJob),
		Headers: []string{"dispatch", "per-job time", "relative"},
	}
	t.AddRow("individual", fmt.Sprintf("%.3gs", indiv), "1.00x")
	t.AddRow("batched", fmt.Sprintf("%.3gs", batched), fmt.Sprintf("%.2fx", indiv/batched))
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"batching: coalescing same-tenant small jobs into one pool submission cuts per-job dispatch overhead %.2fx (goroutine spawn, drain round-trip, and submission amortized across the batch)",
		indiv/batched))
}
