// Command perfbench is the repository benchmark. It runs one of four seeded
// workloads — the parallel algorithms on their own (pstl-kernels), the
// service tier through real pstld processes (svc-local, svc-remote) and the
// streaming plane over the shared server (stream-windows) — checks every
// result against a sequential oracle, and prints its metrics by name with
// their unit. Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload pstl-kernels --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it times the calls into each layer and reports per-layer
// metrics instead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it are the
// human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }

// unitOf derives a metric's unit from its name's suffix, so a name and its
// unit cannot drift apart.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_melem_s", "Melem/s"}, {"_per_s", "1/s"}, {"_gbps", "GB/s"}, {"_frac", "ratio"},
		{"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_mb", "MiB"},
		{"_per_call", "count"}, {"_per_job", "count"}, {"_per_event", "count"},
		{"chunks_per_call.small", "count"}, {"chunks_per_call.large", "count"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	panic("perfbench: no unit for metric " + name)
}

// result is one workload run's outcome. attempted and failed count checked
// operations: kernel calls, jobs, windows.
type result struct {
	attempted, failed int64
	e2e, layers       metrics
}

func newResult() *result { return &result{e2e: metrics{}, layers: metrics{}} }

// check counts one checked operation, and a failure when ok is false. The
// first few failures are described on stderr.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED "+format+"\n", args...)
		}
	}
}

func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
}

// runFunc runs a workload for dur. traced selects the traced run, which
// fills r.layers instead of r.e2e.
type runFunc func(e *env, seed uint64, dur time.Duration, traced bool) (*result, error)

var workloads = []struct {
	name string
	run  runFunc
}{
	{"pstl-kernels", runKernels},
	{"svc-local", runSvcLocal},
	{"svc-remote", runSvcRemote},
	{"stream-windows", runStream},
}

// e2eNames and layerNames are the metric sets BENCHMARK.json declares; a
// run that misses one is a benchmark bug. Every workload reports every
// end-to-end metric, each in the terms of its own operation:
//
//	metric      pstl-kernels                  svc-local, svc-remote   stream-windows
//	ops_per_s   geomean large-n calls/s       correct jobs/s          accepted events/s
//	op_p50_ms   geomean small-n call median   job median              window median
//	op_tail_ms  geomean small-n call p90      job p99                 window p99
//	setup_s     median of repeated set-ups to ready
//	peak_rss_mb VmHWM of the benchmark process, or summed over the pstld processes
//
// The small-n calls take ~10 µs, where a p99 moves with every host
// interrupt; their p90 is the tail that repeats from run to run.
var e2eNames = []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}

var layerNames = func() []string {
	var names []string
	for _, a := range allKernels {
		names = append(names, "core."+a+".small_us", "core."+a+".allocs_per_call")
	}
	for _, a := range bandwidthKernels {
		names = append(names, "core."+a+".large_gbps", "core."+a+".roofline_frac")
	}
	return append(names,
		"core.sort.large_melem_s", "stream.triad_1core_gbps",
		"native.dispatch_empty_us", "native.steals_per_call", "native.parks_per_call", "native.wakeups_per_call",
		"exec.chunks_per_call.small", "exec.chunks_per_call.large",
		"http.submit_rtt_ms", "http.get_rtt_ms", "http.polls_per_job",
		"serve.queue_wait_ms", "serve.start_to_first_chunk_us", "serve.execute_ms", "serve.rejected_frac",
		"shard.joblog_append_us", "shard.joblog_fsync_ms", "shard.pstld_fsync_ms",
		"shard.spills_per_job", "shard.migrations_per_job",
		"cluster.rpc_submit_ms", "cluster.completion_lag_ms",
		"flow.push_ns", "flow.paused_frac", "flow.assignments_per_event",
		"flow.wordcount.apply_ms", "flow.reduce.apply_ms", "serve.window_queue_wait_ms",
		"serve.batch_queue_wait_ms", "serve.batch_jobs_per_s",
		"budget.remainder_ms", "trace.overhead_frac",
	)
}()

// probeDur is how long each other workload runs inside a traced run to
// supply the per-layer metrics of layers the traced workload never crosses.
const probeDur = 1500 * time.Millisecond

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: pstl-kernels, svc-local, svc-remote, stream-windows")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		pstld   = flag.String("pstld", "", "pstld binary built from this tree")
		work    = flag.String("work", ".bench_build", "directory for temp files")
	)
	flag.Parse()
	idx := -1
	for i, w := range workloads {
		if w.name == *name {
			idx = i
		}
	}
	if idx < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *pstld == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (pstl-kernels|svc-local|svc-remote|stream-windows), --seconds >= 1, --trace 0|1, --pstld")
		return 2
	}
	e, err := newEnv(*pstld, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(1)
	}()

	e.facts.print()
	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	dur := time.Duration(*seconds) * time.Second
	res, err := workloads[idx].run(e, *seed, dur, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, want := res.e2e, e2eNames
	if *trace == 1 {
		// Layers this workload never crosses come from short traced probes
		// of the other workloads, so every traced run reports every layer.
		for i, w := range workloads {
			if i == idx || !missing(res.layers, layerNames) {
				continue
			}
			fmt.Printf("# probe %s for %v\n", w.name, probeDur)
			pr, err := w.run(e, *seed, probeDur, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", w.name, err)
				return 1
			}
			res.merge(pr)
			for k, v := range pr.layers {
				if _, ok := res.layers[k]; !ok {
					res.layers[k] = v
				}
			}
		}
		out, want = res.layers, layerNames
	}
	if missing(out, want) {
		fmt.Fprintf(os.Stderr, "perfbench: metrics missing from the report: %v\n", absent(out, want))
		return 1
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	fmt.Printf("# attempted=%d failed=%d\n", res.attempted, res.failed)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func absent(m metrics, names []string) []string {
	var out []string
	for _, n := range names {
		if _, ok := m[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

func missing(m metrics, names []string) bool { return len(absent(m, names)) > 0 }

// env is what every workload shares: the host facts, the pstld binary, a
// per-run temp dir and the child processes to stop on exit.
type env struct {
	root, pstld, tmp string
	facts            hostFacts
	procs            procSet
}

func newEnv(pstld, work string) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	pstld, err = filepath.Abs(pstld)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, pstld: pstld, tmp: tmp, facts: collectFacts(root)}, nil
}

// cleanup stops every child process and removes the run's temp dir. It is
// safe to call more than once.
func (e *env) cleanup() {
	e.procs.stopAll()
	os.RemoveAll(e.tmp)
}
