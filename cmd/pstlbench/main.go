// Command pstlbench runs the pSTL-Bench micro-benchmarks.
//
// Two modes exist:
//
//   - sim (default): measure the paper's five kernels on a simulated
//     machine under a chosen compiler/runtime backend, reproducing the
//     paper's experimental conditions (Mach A-E, GCC/ICC/NVC x
//     TBB/GNU/HPX/OMP/CUDA);
//   - native: measure this library's real parallel algorithms on the host
//     with a chosen scheduling strategy and worker count.
//
// An auxiliary mode, stream-native, runs the STREAM bandwidth benchmark
// (internal/stream) on the host with 1..GOMAXPROCS workers; the simulated
// Mach A/B/C row it is compared with is `pstlreport -exp tab2`.
//
// Examples:
//
//	pstlbench -mode sim -machine a -backend GCC-TBB,NVC-OMP -algo for_each -minexp 10 -maxexp 24
//	pstlbench -mode native -strategy stealing -workers 8 -algo reduce,sort -maxexp 20
//	pstlbench -mode stream-native -maxexp 24
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/core"
	"pstlbench/internal/counters"
	"pstlbench/internal/exec"
	"pstlbench/internal/harness"
	"pstlbench/internal/kernels"
	"pstlbench/internal/machine"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
	"pstlbench/internal/report"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/trace"
	"pstlbench/internal/tune"
)

func main() {
	var (
		mode      = flag.String("mode", "sim", "sim (simulated machines), native (this host), or stream-native (STREAM bandwidth)")
		machName  = flag.String("machine", "a", "simulated machine: a, b, c, d, e")
		backends  = flag.String("backend", "all", "comma-separated backend IDs (GCC-SEQ, GCC-TBB, GCC-GNU, GCC-HPX, ICC-TBB, NVC-OMP, NVC-CUDA) or 'all'")
		algos     = flag.String("algo", "all", "comma-separated kernels, 'all' (the five studied), or 'extended' (the full native set)")
		kit       = flag.Int("kit", 1, "for_each computational intensity (k_it)")
		minExp    = flag.Int("minexp", 10, "smallest problem size exponent (2^minexp elements)")
		maxExp    = flag.Int("maxexp", 24, "largest problem size exponent")
		threads   = flag.Int("threads", 0, "thread count (0 = all cores of the machine / GOMAXPROCS)")
		alloc     = flag.String("alloc", "first-touch", "allocation strategy: default or first-touch (sim mode)")
		strategy  = flag.String("strategy", "stealing", "native scheduling strategy: seq, forkjoin, stealing, centralqueue")
		numaSteal = flag.Bool("numa-steal", false, "NUMA-aware steal order: scan same-node victims before remote ones (sim: stealing backends; native: workers pinned to the -machine topology)")
		workers   = flag.Int("workers", 0, "native worker count (0 = GOMAXPROCS)")
		minTime   = flag.Duration("mintime", 200*time.Millisecond, "minimum measuring time per benchmark (native mode)")
		grainName = flag.String("grain", "", "grain policy: auto, static, fine, guided, or adaptive (online tuner keyed by loop site/size/workers; sim mode overrides the backend's own grain)")
		tuneCache = flag.String("tune-cache", "", "JSON tuning-cache file for -grain=adaptive: imported before the run when present (warm start), rewritten after")
		fused     = flag.Bool("fused", false, "add fused-vs-staged pipeline chain benchmarks (3-stage element-wise chains; sim and native modes) with modeled traffic columns")
		filter    = flag.String("filter", "", "regexp filter on benchmark instance names")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut   = flag.Bool("json", false, "emit JSON records instead of a table")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or ui.perfetto.dev; summarize with pstlreport -trace)")
	)
	flag.Parse()

	// The STREAM bandwidth mode is standalone: no suite, no filters.
	if *mode == "stream-native" {
		// -maxexp sets the array size (2^maxexp elements, 3 arrays x 8 B).
		runStreamNative(1 << *maxExp)
		return
	}

	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			fatal("bad -filter: %v", err)
		}
	}

	gs := parseGrain(*grainName)
	if gs.adaptive {
		gs.tuner = tune.New(tune.Options{})
		if *tuneCache != "" {
			if n, err := gs.tuner.LoadFile(*tuneCache); err != nil {
				fatal("%v", err)
			} else if n > 0 {
				fmt.Fprintf(os.Stderr, "pstlbench: warm-started tuner with %d cached entries from %s\n", n, *tuneCache)
			}
		}
	} else if *tuneCache != "" {
		fatal("-tune-cache requires -grain=adaptive")
	}

	selKernels := selectKernels(*algos)
	suite := &harness.Suite{Registry: counters.NewRegistry(), Tuner: gs.tuner}
	tracing := *traceOut != ""
	switch *mode {
	case "sim":
		suite.Tracer = registerSim(suite, *machName, *backends, selKernels, *kit, *minExp, *maxExp, *threads, *alloc, *numaSteal, tracing, gs)
		if *fused {
			registerFusedSim(suite, *machName, *backends, *minExp, *maxExp, *threads, *alloc)
		}
	case "native":
		suite.Tracer = registerNative(suite, *strategy, *workers, selKernels, *kit, *minExp, *maxExp, *minTime, *machName, *numaSteal, tracing, gs, *fused)
	default:
		fatal("unknown -mode %q", *mode)
	}

	results := suite.Run(re)
	harness.SortResults(results)
	if tracing {
		writeTrace(*traceOut, suite.Tracer)
	}
	if gs.adaptive {
		reportTuner(gs.tuner, *tuneCache)
	}
	if *jsonOut {
		emitJSON(results)
		return
	}
	t := &report.Table{
		Headers: []string{"Benchmark", "Iterations", "Time/call", "Stddev", "P99", "GiB/s", "Traffic/call"},
	}
	for _, r := range results {
		stddev, p99 := "-", "-"
		if s := r.Latency; s.Calls > 1 {
			stddev = fmt.Sprintf("%.3g s", s.StdDev)
			p99 = fmt.Sprintf("%.3g s", s.P99)
		}
		traffic := "-"
		if r.TrafficBytes > 0 {
			traffic = fmt.Sprintf("%.1f MiB", float64(r.TrafficBytes)/(1<<20))
		}
		t.AddRow(r.FullName(),
			fmt.Sprintf("%d", r.Iterations),
			fmt.Sprintf("%.6g s", r.Seconds),
			stddev,
			p99,
			fmt.Sprintf("%.2f", r.BytesPerSec/(1<<30)),
			traffic)
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
}

// writeTrace exports the tracer's event stream as a Chrome trace-event
// JSON file.
func writeTrace(path string, tr *trace.Tracer) {
	f, err := os.Create(path)
	if err != nil {
		fatal("creating trace file: %v", err)
	}
	if err := trace.WriteChrome(f, tr); err != nil {
		fatal("writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fatal("closing trace file: %v", err)
	}
	fmt.Fprintf(os.Stderr, "pstlbench: wrote %d trace events to %s (%d lost to ring overflow); open in ui.perfetto.dev or summarize with: pstlreport -trace %s\n",
		tr.TotalEvents()-tr.Lost(), path, tr.Lost(), path)
}

// jsonRecord is the machine-readable result schema, one line per
// benchmark instance (JSON Lines).
type jsonRecord struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	Seconds    float64 `json:"seconds_per_call"`
	// Per-call Seconds spread over every timed sample of the instance.
	SecondsStdDev float64 `json:"seconds_stddev,omitempty"`
	SecondsMin    float64 `json:"seconds_min,omitempty"`
	SecondsMax    float64 `json:"seconds_max,omitempty"`
	SecondsP50    float64 `json:"seconds_p50,omitempty"`
	SecondsP99    float64 `json:"seconds_p99,omitempty"`
	BytesPerSec   float64 `json:"bytes_per_sec,omitempty"`
	// Modeled DRAM traffic per call (pipeline chains under -fused).
	TrafficBytes int64 `json:"traffic_bytes,omitempty"`
	// Modeled counters, when the simulator produced them.
	Instructions float64 `json:"instructions,omitempty"`
	DRAMBytes    float64 `json:"dram_bytes,omitempty"`
	// Event-stream distributions of the measured attempt, when tracing.
	ChunkP50        float64 `json:"chunk_p50,omitempty"`
	ChunkP95        float64 `json:"chunk_p95,omitempty"`
	ChunkMax        float64 `json:"chunk_max,omitempty"`
	StealToWorkP50  float64 `json:"steal_to_work_p50,omitempty"`
	TraceEvents     uint64  `json:"trace_events,omitempty"`
	TraceLostEvents uint64  `json:"trace_lost_events,omitempty"`
}

func emitJSON(results []harness.Result) {
	enc := json.NewEncoder(os.Stdout)
	for _, r := range results {
		rec := jsonRecord{
			Name:         r.FullName(),
			Iterations:   r.Iterations,
			Seconds:      r.Seconds,
			BytesPerSec:  r.BytesPerSec,
			TrafficBytes: r.TrafficBytes,
		}
		if s := r.Latency; s.Calls > 1 {
			rec.SecondsStdDev = s.StdDev
			rec.SecondsMin = s.Min
			rec.SecondsMax = s.Max
			rec.SecondsP50 = s.P50
			rec.SecondsP99 = s.P99
		}
		if r.HasCounters && r.Iterations > 0 {
			rec.Instructions = r.Counters.Instructions / float64(r.Iterations)
			rec.DRAMBytes = r.Counters.DRAMBytes / float64(r.Iterations)
		}
		if t := r.Trace; t != nil {
			rec.ChunkP50 = t.Chunk.P50
			rec.ChunkP95 = t.Chunk.P95
			rec.ChunkMax = t.Chunk.Max
			rec.StealToWorkP50 = t.StealToWork.P50
			rec.TraceEvents = t.Events
			rec.TraceLostEvents = t.Lost
		}
		if err := enc.Encode(rec); err != nil {
			fatal("encoding JSON: %v", err)
		}
	}
}

// grainSpec is the parsed -grain flag: a fixed named grain overriding the
// mode's default, or the adaptive tuner.
type grainSpec struct {
	adaptive bool
	override bool
	g        exec.Grain
	tuner    *tune.Tuner
}

func parseGrain(name string) grainSpec {
	switch name {
	case "":
		return grainSpec{}
	case "auto":
		return grainSpec{override: true, g: exec.Auto}
	case "static":
		return grainSpec{override: true, g: exec.Static}
	case "fine":
		return grainSpec{override: true, g: exec.Fine}
	case "guided":
		return grainSpec{override: true, g: exec.Guided}
	case "adaptive":
		return grainSpec{adaptive: true}
	}
	fatal("unknown -grain %q (auto, static, fine, guided, adaptive)", name)
	panic("unreachable")
}

// reportTuner prints the tuner's operating points to stderr and rewrites
// the tuning cache, if one was named.
func reportTuner(tn *tune.Tuner, cachePath string) {
	if cachePath != "" {
		if err := tn.SaveFile(cachePath); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "pstlbench: wrote tuning cache (%d entries) to %s\n",
			len(tn.Export().Entries), cachePath)
	}
	for _, k := range tn.Keys() {
		chunk, tp, ok := tn.Best(k)
		if !ok {
			continue
		}
		state := "exploring"
		if tn.Converged(k) {
			state = "converged"
		}
		fmt.Fprintf(os.Stderr, "pstlbench: tune %s: chunk=%d (%.3g items/s, %s)\n", k, chunk, tp, state)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pstlbench: "+format+"\n", args...)
	os.Exit(2)
}

func selectKernels(spec string) []kernels.Kernel {
	switch spec {
	case "all":
		return kernels.All()
	case "extended":
		return kernels.Extended()
	}
	var out []kernels.Kernel
	for _, name := range strings.Split(spec, ",") {
		k, ok := kernels.ExtByName(strings.TrimSpace(name))
		if !ok {
			fatal("unknown kernel %q", name)
		}
		out = append(out, k)
	}
	return out
}

func selectBackends(spec string) []*backend.Backend {
	if spec == "all" {
		return backend.All()
	}
	var out []*backend.Backend
	for _, id := range strings.Split(spec, ",") {
		b := backend.ByID(strings.TrimSpace(id))
		if b == nil {
			fatal("unknown backend %q", id)
		}
		out = append(out, b)
	}
	return out
}

// registerSim adds one benchmark per (kernel, backend) with the size sweep
// as range arguments; each iteration reports the simulator's virtual time
// via manual timing. With tracing, it returns a virtual-time tracer with
// one track per simulated core plus the harness marker track.
func registerSim(suite *harness.Suite, machName, backendSpec string, ks []kernels.Kernel, kit, minExp, maxExp, threads int, allocName string, numaSteal, tracing bool, gs grainSpec) *trace.Tracer {
	m := machine.ByName(machName)
	if m == nil {
		fatal("unknown machine %q", machName)
	}
	if threads <= 0 || threads > m.Cores {
		threads = m.Cores
	}
	var tr *trace.Tracer
	if tracing {
		tr = trace.NewVirtual(threads+1, trace.DefaultCapacity)
		for c := 0; c < threads; c++ {
			tr.SetLabel(c, fmt.Sprintf("core %d", c))
		}
		tr.SetLabel(threads, "harness")
	}
	var alloc allocsim.Strategy
	switch allocName {
	case "default":
		alloc = allocsim.Default
	case "first-touch", "firsttouch", "ft":
		alloc = allocsim.FirstTouch
	default:
		fatal("unknown -alloc %q", allocName)
	}
	var args [][]int64
	for e := minExp; e <= maxExp; e++ {
		args = append(args, []int64{1 << e})
	}
	for _, k := range ks {
		if !k.Sim {
			continue // extended kernels are native-only
		}
		for _, b := range selectBackends(backendSpec) {
			if b.IsGPU() && m.GPU == nil {
				continue
			}
			b.NUMASteal = numaSteal // fresh per selectBackends call
			k, b := k, b
			site := fmt.Sprintf("%s/%s/%s", k.Name, machName, b.ID)
			tunable := gs.adaptive && !b.IsGPU()
			suite.Register(harness.Benchmark{
				Name: site,
				Args: args,
				Fn: func(st *harness.State) {
					n := st.Range(0)
					// The backend is copied so a grain override (fixed or
					// per-invocation adaptive proposal) stays local to this
					// instance.
					bb := *b
					if gs.override {
						bb.Grain = gs.g
					}
					var key tune.Key
					if tunable {
						key = tune.Key{Site: site, N: int(n), Workers: threads}
						st.Tune(key)
					}
					for st.Next() {
						if tunable {
							bb.Grain = gs.tuner.Propose(key)
						}
						r := simexec.Run(simexec.Config{
							Machine: m, Backend: &bb,
							Workload: skeleton.Workload{Op: k.Op, N: n, ElemBytes: 8, Kit: kit, HitFrac: 0.5},
							Threads:  threads, Alloc: alloc,
							TransferBack: bb.IsGPU(),
							Tracer:       tr,
						})
						st.SetIterationTime(r.Seconds)
						st.RecordCounters(r.Counters)
					}
					st.SetBytesProcessed(int64(st.Iterations()) * n * 8)
				},
			})
		}
	}
	return tr
}

// registerNative adds benchmarks running the real Go library on the host.
// With numaSteal, the pool's victim selection follows the -machine
// topology, as if the workers were pinned to that machine's core layout.
// With tracing, it returns a wall-clock tracer with one track per pool
// worker, a caller track, and the harness marker track.
func registerNative(suite *harness.Suite, strategyName string, workers int, ks []kernels.Kernel, kit, minExp, maxExp int, minTime time.Duration, machName string, numaSteal, tracing bool, gs grainSpec, fused bool) *trace.Tracer {
	var policy core.Policy
	var tr *trace.Tracer
	switch strategyName {
	case "seq":
		policy = core.Seq()
		if tracing {
			// Sequential runs have no scheduler; only harness markers.
			tr = trace.New(1, trace.DefaultCapacity)
			tr.SetLabel(0, "harness")
		}
	case "forkjoin", "stealing", "centralqueue":
		var s native.Strategy
		switch strategyName {
		case "forkjoin":
			s = native.StrategyForkJoin
		case "stealing":
			s = native.StrategyStealing
		default:
			s = native.StrategyCentralQueue
		}
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		topo := native.Topology{}
		if numaSteal {
			m := machine.ByName(machName)
			if m == nil {
				fatal("unknown machine %q", machName)
			}
			topo = native.TopologyFromMachine(m, workers)
		}
		if tracing {
			tr = trace.New(workers+2, trace.DefaultCapacity)
			for w := 0; w < workers; w++ {
				tr.SetLabel(w, fmt.Sprintf("worker %d", w))
			}
			tr.SetLabel(workers, "caller")
			tr.SetLabel(workers+1, "harness")
		}
		pool := native.NewTraced(workers, s, topo, tr)
		// The pool lives for the process lifetime; no Close needed.
		policy = core.Par(pool).WithGrain(exec.Auto)
		if gs.override {
			policy = policy.WithGrain(gs.g)
		}
		if gs.adaptive {
			// The harness differences these snapshots to attribute the
			// pool's steal/park/spin traffic to each iteration.
			suite.TuneSched = func() counters.Set { return pool.Stats().Counters() }
		}
	default:
		fatal("unknown -strategy %q", strategyName)
	}
	var args [][]int64
	for e := minExp; e <= maxExp; e++ {
		args = append(args, []int64{1 << e})
	}
	for _, k := range ks {
		k := k
		site := fmt.Sprintf("%s/native/%s", k.Name, strategyName)
		suite.Register(harness.Benchmark{
			Name:    site,
			Args:    args,
			MinTime: minTime,
			Fn: func(st *harness.State) {
				n := int(st.Range(0))
				p := policy
				if gs.adaptive && p.Pool != nil {
					// Observations key on the problem size; loops running at
					// other sizes (e.g. a scan's chunk-count loop) propose
					// under their own keys and stay at exec.Auto.
					st.Tune(tune.Key{Site: site, N: n, Workers: p.Pool.Workers()})
					p = p.WithGrainSource(gs.tuner.Site(site))
				}
				k.Body(p, n, kit)(st)
			},
		})
	}
	if fused {
		registerFusedNative(suite, policy, minTime, minExp, maxExp, gs)
	}
	return tr
}

// registerFusedNative adds the staged-vs-fused 3-stage chain benchmarks on
// the real library: the same chain run as separate core passes with a
// materialized intermediate, and as one fused pipeline pass. Each instance
// reports its modeled DRAM traffic (skeleton.Chain's bytes per element)
// next to the measured time — the traffic column the JSON records carry
// as traffic_bytes.
func registerFusedNative(suite *harness.Suite, policy core.Policy, minTime time.Duration, minExp, maxExp int, gs grainSpec) {
	var args [][]int64
	for e := minExp; e <= maxExp; e++ {
		args = append(args, []int64{1 << e})
	}
	f := func(v float64) float64 { return v*3 + 1 }
	g := func(v float64) float64 { return v * 0.5 }
	gen := func(i int) float64 { return float64((uint64(i+1) * 6364136223846793005) >> 40) }

	register := func(site string, traffic func(n int) int64, body func(p core.Policy, n int, st *harness.State)) {
		suite.Register(harness.Benchmark{
			Name: site, Args: args, MinTime: minTime,
			Fn: func(st *harness.State) {
				n := int(st.Range(0))
				p := policy
				if gs.adaptive && p.Pool != nil {
					st.Tune(tune.Key{Site: site, N: n, Workers: p.Pool.Workers()})
					p = p.WithGrainSource(gs.tuner.Site(site))
				}
				body(p, n, st)
				st.SetItemsProcessed(int64(st.Iterations()) * int64(n))
				st.SetTrafficBytes(int64(st.Iterations()) * traffic(n))
			},
		})
	}

	// Traffic models come from the skeleton chain constants, the same ones
	// the simulator's chain phases carry.
	fromChain := skeleton.Chain{Stages: 2, Terminal: "reduce"}
	genChain := skeleton.Chain{Stages: 2, Terminal: "reduce", Generate: true}
	perElem := func(c skeleton.Chain, fusedRun bool) func(n int) int64 {
		return func(n int) int64 {
			if fusedRun {
				return int64(c.FusedBytesPerElem() * float64(n))
			}
			return int64(c.StagedBytesPerElem() * float64(n))
		}
	}

	register("chain_sum/native/staged", perElem(fromChain, false),
		func(p core.Policy, n int, st *harness.State) {
			src := chainSrc(n)
			tmp := make([]float64, n)
			for st.Next() {
				core.Transform(p, tmp, src, f)
				core.Transform(p, tmp, tmp, g)
				sink = core.Sum(p, tmp, 0)
			}
		})
	register("chain_sum/native/fused", perElem(fromChain, true),
		func(p core.Policy, n int, st *harness.State) {
			src := chainSrc(n)
			pl := pipeline.From(src).Transform(f).Transform(g)
			for st.Next() {
				sink = pipeline.Sum(p, pl, 0)
			}
		})
	register("chain_gen_sum/native/staged", perElem(genChain, false),
		func(p core.Policy, n int, st *harness.State) {
			tmp := make([]float64, n)
			for st.Next() {
				core.Generate(p, tmp, gen)
				core.Transform(p, tmp, tmp, f)
				core.Transform(p, tmp, tmp, g)
				sink = core.Sum(p, tmp, 0)
			}
		})
	register("chain_gen_sum/native/fused", perElem(genChain, true),
		func(p core.Policy, n int, st *harness.State) {
			pl := pipeline.Generate(n, gen).Transform(f).Transform(g)
			for st.Next() {
				sink = pipeline.Sum(p, pl, 0)
			}
		})
}

// sink defeats dead-code elimination of the benchmark bodies.
var sink float64

// chainSrc builds the slice source for the chain benchmarks.
func chainSrc(n int) []float64 {
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i % 4096)
	}
	return src
}

// registerFusedSim adds simulated staged-vs-fused chain benchmarks: the
// chain skeletons run through simexec.RunChain on the selected machine,
// predicting the traffic drop the native rows measure.
func registerFusedSim(suite *harness.Suite, machName, backendSpec string, minExp, maxExp, threads int, allocName string) {
	m := machine.ByName(machName)
	if m == nil {
		fatal("unknown machine %q", machName)
	}
	if threads <= 0 || threads > m.Cores {
		threads = m.Cores
	}
	var alloc allocsim.Strategy
	if allocName == "default" {
		alloc = allocsim.Default
	} else {
		alloc = allocsim.FirstTouch
	}
	var args [][]int64
	for e := minExp; e <= maxExp; e++ {
		args = append(args, []int64{1 << e})
	}
	chain := skeleton.Chain{Stages: 2, Terminal: "reduce"}
	for _, b := range selectBackends(backendSpec) {
		if b.IsGPU() || b.IsSequential() {
			continue
		}
		for _, fusedRun := range []bool{false, true} {
			b, fusedRun := b, fusedRun
			disc := "staged"
			if fusedRun {
				disc = "fused"
			}
			suite.Register(harness.Benchmark{
				Name: fmt.Sprintf("chain_sum/%s/%s/%s", machName, b.ID, disc),
				Args: args,
				Fn: func(st *harness.State) {
					n := st.Range(0)
					cfg := simexec.Config{
						Machine: m, Backend: b, Threads: threads, Alloc: alloc,
						Workload: skeleton.Workload{Op: backend.OpTransform, N: n, ElemBytes: 8, Kit: 1},
					}
					for st.Next() {
						r := simexec.RunChain(cfg, chain, fusedRun)
						st.SetIterationTime(r.Seconds)
						st.RecordCounters(r.Counters)
					}
					perElem := chain.StagedBytesPerElem()
					if fusedRun {
						perElem = chain.FusedBytesPerElem()
					}
					st.SetBytesProcessed(int64(st.Iterations()) * n * 8)
					st.SetTrafficBytes(int64(st.Iterations()) * int64(perElem*float64(n)))
				},
			})
		}
	}
}
