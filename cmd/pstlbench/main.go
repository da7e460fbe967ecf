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
//	pstlbench -mode native -algo chains -minexp 20 -maxexp 22
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
		algos     = flag.String("algo", "all", "comma-separated kernels, 'all' (the five studied), 'extended' (the Table-1 set), or 'chains' (staged vs fused pipeline chains, with modeled traffic columns)")
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
		gs.tuner = tune.New()
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
	suite := &harness.Suite{Tuner: gs.tuner}
	tracing := *traceOut != ""
	switch *mode {
	case "sim":
		suite.Tracer = registerSim(suite, *machName, *backends, selKernels, *kit, *minExp, *maxExp, *threads, *alloc, *numaSteal, tracing, gs)
	case "native":
		suite.Tracer = registerNative(suite, *strategy, *workers, selKernels, *kit, *minExp, *maxExp, *minTime, *machName, *numaSteal, tracing, gs)
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
	// Modeled DRAM traffic per call (pipeline chains).
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
		// A single call, as a simulated row makes, is its own spread.
		if s := r.Latency; s.Calls > 0 {
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
	case "chains":
		return kernels.Chains()
	}
	var out []kernels.Kernel
	for _, name := range strings.Split(spec, ",") {
		k, ok := kernels.ByName(strings.TrimSpace(name))
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
// via manual timing. Chains run through simexec.RunChain on the CPU
// backends that run in parallel. A simulated instance is deterministic, so
// it runs once unless the adaptive tuner needs iterations to search. Pairs
// the simulator does not model are named on stderr, and a selection
// without any modeled pair is an error. With tracing, it returns a
// virtual-time tracer with one track per simulated core plus the harness
// marker track.
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
	var skipped []string
	registered := 0
	for _, k := range ks {
		if !k.Sim {
			skipped = append(skipped, k.Name+"/all") // native-only kernel
			continue
		}
		for _, b := range selectBackends(backendSpec) {
			if b.IsGPU() && m.GPU == nil || k.IsChain() && (b.IsGPU() || b.IsSequential()) {
				// No GPU on this machine, or a chain: chains model only
				// the CPU pool's parallel passes.
				skipped = append(skipped, k.Name+"/"+b.ID)
				continue
			}
			b.NUMASteal = numaSteal // fresh per selectBackends call
			k, b := k, b
			site := fmt.Sprintf("%s/%s/%s", k.Name, machName, b.ID)
			tunable := gs.adaptive && !b.IsGPU()
			maxIters := 1
			if tunable {
				maxIters = 0 // the harness default
			}
			registered++
			suite.Register(harness.Benchmark{
				Name:          site,
				Args:          args,
				MaxIterations: maxIters,
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
						cfg := simexec.Config{
							Machine: m, Backend: &bb,
							Workload: skeleton.Workload{Op: k.Op, N: n, ElemBytes: 8, Kit: kit, HitFrac: 0.5},
							Threads:  threads, Alloc: alloc,
							TransferBack: bb.IsGPU(),
							Tracer:       tr,
						}
						var r simexec.Result
						if k.IsChain() {
							r = simexec.RunChain(cfg, k.Chain, k.Fused)
						} else {
							r = simexec.Run(cfg)
						}
						st.SetIterationTime(r.Seconds)
						st.RecordCounters(r.Counters)
					}
					k.Account(st, n)
				},
			})
		}
	}
	if registered == 0 {
		fatal("machine %s: the simulator models none of the selected kernel/backend pairs: %s", machName, strings.Join(skipped, ", "))
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "pstlbench: machine %s: skipped kernel/backend pairs the simulator does not model: %s\n", machName, strings.Join(skipped, ", "))
	}
	return tr
}

// registerNative adds benchmarks running the real Go library on the host.
// With numaSteal, the pool's victim selection follows the -machine
// topology, as if the workers were pinned to that machine's core layout.
// With tracing, it returns a wall-clock tracer with one track per pool
// worker, a caller track, and the harness marker track.
func registerNative(suite *harness.Suite, strategyName string, workers int, ks []kernels.Kernel, kit, minExp, maxExp int, minTime time.Duration, machName string, numaSteal, tracing bool, gs grainSpec) *trace.Tracer {
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
	return tr
}
