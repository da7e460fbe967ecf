// Command pstld is the algorithm-serving daemon: it exposes the parallel
// algorithm library as a long-running multi-tenant HTTP service on one
// shared work-stealing pool, with bounded admission queues, weighted fair
// scheduling across tenants, and cooperative job cancellation.
//
// Daemon mode:
//
//	pstld -addr :8080 -workers 8 -sched wfq -queue-cap 64 -max-concurrent 2 -weights gold=3,bronze=1
//
//	curl -s -X POST localhost:8080/jobs -d '{"kernel":"sort","n":1048576,"tenant":"gold","deadline_ms":5000}'
//	curl -s localhost:8080/jobs/job-1
//	curl -s -X DELETE localhost:8080/jobs/job-1
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics        # Prometheus text exposition
//	curl -s localhost:8080/spans          # terminal job lifecycle spans
//
// Observability is always on in daemon mode: /metrics serves queue depth,
// per-shard load, per-tenant latency histograms and more in Prometheus
// text format (no client library needed); /spans serves the last -span-log
// terminal job lifecycle spans; -slo sets a per-tenant latency objective
// whose rolling-window burn rate shows up in /stats and /metrics. Watch
// mode turns any reachable pstld's /stats into a live terminal dashboard:
//
//	pstld -watch localhost:8080 -watch-interval 1s
//
// Load-generator mode runs a closed-loop workload against an in-process
// server (each simulated client submits, waits, and immediately resubmits)
// and reports per-tenant latency and fairness:
//
//	pstld -loadgen -duration 2s -sched wfq \
//	    -spec "big:1:sort:1048576:4,small:1:reduce:65536:2"
//
// The -spec format is tenant:weight:kernel:n:clients, comma-separated.
//
// Sharded mode fronts N in-process server shards (each with its own pool)
// behind a consistent-hash router with load-aware overflow, and -joblog
// makes the tier restart-safe: a killed daemon replays the log on startup
// and resumes its queue with no acknowledged job lost and no completed
// job re-run:
//
//	pstld -addr :8080 -shards 4 -workers 2 -joblog /var/run/pstld.jsonl
//
// Distributed mode moves the shards into separate worker processes. Each
// worker is a single serve.Server exposing the worker RPC surface
// (submit/poll/withdraw/healthz); the router drives them over HTTP with
// health-checked failover — a SIGKILLed worker is detected by missed
// heartbeats and its acknowledged backlog is re-placed on the survivors:
//
//	pstld -worker -addr :9001
//	pstld -worker -addr :9002
//	pstld -addr :8080 -peers http://127.0.0.1:9001,http://127.0.0.1:9002
//
// A new worker can join a live ring; consistent hashing keeps the remap
// to roughly 1/(N+1) of tenants:
//
//	pstld -worker -addr :9003 -join http://127.0.0.1:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pstlbench/internal/cluster"
	"pstlbench/internal/obs"
	"pstlbench/internal/report"
	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address (daemon mode)")
		workers  = flag.Int("workers", 0, "pool worker count (0 = GOMAXPROCS)")
		strategy = flag.String("strategy", "stealing", "pool scheduling strategy: forkjoin, stealing, centralqueue")
		sched    = flag.String("sched", "wfq", "job-level discipline: wfq or fifo")
		queueCap = flag.Int("queue-cap", 64, "admission queue bound (jobs waiting beyond it are rejected with Retry-After)")
		maxConc  = flag.Int("max-concurrent", 1, "jobs running on the pool at once")
		weights  = flag.String("weights", "", "per-tenant WFQ weights, e.g. gold=3,bronze=1")
		shards   = flag.Int("shards", 1, "server shards behind the consistent-hash router (1 = single server, no router)")
		joblog   = flag.String("joblog", "", "append-only job log path for restart-safe serving (enables the router)")
		quota    = flag.Int("quota", 0, "per-tenant queued-job quota (0 disables)")
		retain   = flag.Int("retain-done", 1024, "terminal job records retained for status queries (-1 = unbounded)")
		loadgen  = flag.Bool("loadgen", false, "run the closed-loop load generator instead of serving HTTP")
		duration = flag.Duration("duration", 2*time.Second, "loadgen run time")
		spec     = flag.String("spec", "big:1:sort:262144:4,small:1:reduce:16384:2",
			"loadgen workload: tenant:weight:kernel:n:clients, comma-separated")
		slo       = flag.Duration("slo", 0, "per-tenant latency objective behind the burn-rate gauges (0 disables)")
		sloTarget = flag.Float64("slo-target", 0.99, "fraction of jobs that must meet -slo")
		window    = flag.Duration("window", 5*time.Second, "rolling latency window width")
		windows   = flag.Int("windows", 16, "rolling latency windows retained")
		spanCap   = flag.Int("span-log", 4096, "terminal job lifecycle spans retained for /spans (0 disables)")
		watchURL  = flag.String("watch", "", "watch mode: live dashboard polling this pstld base URL instead of serving")
		watchIvl  = flag.Duration("watch-interval", time.Second, "watch mode refresh interval")
		watchN    = flag.Int("watch-count", 0, "watch mode frames before exiting (0 = until interrupted)")
		worker    = flag.Bool("worker", false, "worker mode: serve one shard's RPC surface for a remote router")
		peers     = flag.String("peers", "", "comma-separated worker base URLs to drive as remote shards (router mode)")
		joinURL   = flag.String("join", "", "worker mode: router base URL to join once the listener is up")
		advertise = flag.String("advertise", "", "worker mode: base URL the router dials back (default derived from -addr)")
		heartbeat = flag.Duration("heartbeat", 250*time.Millisecond, "cluster heartbeat interval")
		suspectN  = flag.Int("suspect-after", 2, "consecutive failed heartbeats before a shard is suspect")
		deadN     = flag.Int("dead-after", 5, "consecutive failed heartbeats before a shard is dead and its backlog re-placed")
	)
	flag.Parse()

	if *watchURL != "" {
		runWatch(*watchURL, *watchIvl, *watchN)
		return
	}

	disc, ok := serve.ParseDiscipline(*sched)
	if !ok {
		fatal("unknown -sched %q (wfq, fifo)", *sched)
	}
	cfg := serve.Config{
		Workers:       *workers,
		Strategy:      *strategy,
		Discipline:    disc,
		QueueCap:      *queueCap,
		MaxConcurrent: *maxConc,
		Weights:       parseWeights(*weights),
		TenantQuota:   *quota,
		RetainDone:    *retain,
		SLOObjective:  *slo,
		SLOTarget:     *sloTarget,
		WindowWidth:   *window,
		WindowCount:   *windows,
	}

	if *loadgen {
		runLoadgen(cfg, *spec, *duration)
		return
	}

	// Observability is always on in daemon mode: the registry and span ring
	// cost nothing on the job path beyond atomic updates, and /metrics +
	// /spans are only routed when these are non-nil.
	metrics := obs.NewRegistry()
	var spanLog *obs.SpanLog
	if *spanCap > 0 {
		spanLog = obs.NewSpanLog(*spanCap)
	}

	// Worker mode: one serve.Server exposing the worker RPC surface; the
	// shard placement brain lives in the router process driving it.
	if *worker {
		cfg.Metrics = metrics
		cfg.Spans = spanLog
		runWorker(cfg, *addr, *advertise, *joinURL)
		return
	}

	// Sharded mode: a router over N shards — in-process with -shards, or
	// separate worker processes with -peers. The single-server path below
	// stays untouched when neither is asked for.
	if *shards > 1 || *joblog != "" || *peers != "" {
		scfg := shard.Config{
			Shards:     *shards,
			Serve:      cfg,
			LogPath:    *joblog,
			RetainDone: *retain,
			Metrics:    metrics,
			Spans:      spanLog,
		}
		if *peers != "" {
			cm := obs.NewClusterMetrics(metrics)
			dial := func(url string) (shard.ShardHandle, error) {
				return cluster.NewRemoteShard(cluster.RemoteConfig{
					Client: cluster.ClientConfig{BaseURL: url, Metrics: cm},
				}), nil
			}
			for _, u := range strings.Split(*peers, ",") {
				if u = strings.TrimSpace(u); u == "" {
					continue
				}
				h, _ := dial(u)
				scfg.Handles = append(scfg.Handles, h)
			}
			if len(scfg.Handles) == 0 {
				fatal("-peers lists no worker URLs")
			}
			scfg.Join = dial
			scfg.HeartbeatEvery = *heartbeat
			scfg.SuspectAfter = *suspectN
			scfg.DeadAfter = *deadN
		}
		runRouter(scfg, *addr, disc)
		return
	}

	cfg.Metrics = metrics
	cfg.Spans = spanLog
	s := serve.New(cfg)
	fmt.Fprintf(os.Stderr, "pstld: serving on %s (workers=%d sched=%s queue-cap=%d max-concurrent=%d)\n",
		*addr, s.Stats().Workers, disc, *queueCap, *maxConc)
	serveAndDrain(&http.Server{Handler: s.Handler()}, listen(*addr), s.Close)
}

// listen binds the daemon's address up front so the "listening" log line
// and any -join announcement only happen once the socket is really open.
func listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("%v", err)
	}
	return ln
}

// serveAndDrain runs the listener until SIGINT/SIGTERM, drains in-flight
// HTTP exchanges via Shutdown, and only then closes the backing tier — a
// status query racing shutdown gets its response, not a connection reset,
// and jobs accepted before the signal still reach a terminal state.
func serveAndDrain(httpSrv *http.Server, ln net.Listener, closeBackend func()) {
	drained := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "pstld: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if httpSrv.Shutdown(ctx) != nil {
			httpSrv.Close()
		}
		close(drained)
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("%v", err)
	}
	<-drained
	closeBackend()
}

// runWorker serves one shard over the worker RPC surface and, with -join,
// announces itself to a live router once the listener is up.
func runWorker(cfg serve.Config, addr, advertise, joinURL string) {
	s := serve.New(cfg)
	ln := listen(addr)
	self := advertise
	if self == "" {
		self = deriveAdvertise(ln.Addr())
	}
	fmt.Fprintf(os.Stderr, "pstld: worker on %s (advertise %s, workers=%d)\n",
		ln.Addr(), self, s.Stats().Workers)
	if joinURL != "" {
		go func() {
			if err := cluster.Join(joinURL, self, 5*time.Second); err != nil {
				fatal("join %s: %v", joinURL, err)
			}
			fmt.Fprintf(os.Stderr, "pstld: joined ring at %s\n", joinURL)
		}()
	}
	serveAndDrain(&http.Server{Handler: s.Handler()}, ln, s.Close)
}

// deriveAdvertise turns the bound listener address into a base URL the
// router can dial back: an unspecified bind host becomes loopback.
func deriveAdvertise(a net.Addr) string {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return "http://" + a.String()
	}
	host := ta.IP.String()
	if ta.IP == nil || ta.IP.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, strconv.Itoa(ta.Port))
}

// runRouter serves the sharded tier: same HTTP surface as the single
// server, plus per-shard stats, (with -joblog) crash-safe replay, and
// (with -peers) remote shards with health-checked failover and /cluster/join.
func runRouter(cfg shard.Config, addr string, disc serve.Discipline) {
	r, err := shard.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	st := r.Stats()
	if len(cfg.Handles) > 0 {
		fmt.Fprintf(os.Stderr, "pstld: router on %s (remote shards=%d healthy=%d heartbeat=%v joblog=%q replayed=%d recovered=%d)\n",
			addr, st.Shards, st.HealthyShards, cfg.HeartbeatEvery, cfg.LogPath, st.Replayed, st.Recovered)
	} else {
		fmt.Fprintf(os.Stderr, "pstld: serving on %s (shards=%d workers=%d sched=%s joblog=%q replayed=%d recovered=%d)\n",
			addr, st.Shards, st.PerShard[0].Workers, disc, cfg.LogPath, st.Replayed, st.Recovered)
	}
	serveAndDrain(&http.Server{Handler: r.Handler()}, listen(addr), r.Close)
}

// tenantSpec is one parsed -spec entry.
type tenantSpec struct {
	tenant  string
	weight  float64
	kernel  string
	n       int
	clients int
}

func parseSpec(s string) []tenantSpec {
	var out []tenantSpec
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 5 {
			fatal("bad -spec entry %q, want tenant:weight:kernel:n:clients", part)
		}
		w, err1 := strconv.ParseFloat(f[1], 64)
		n, err2 := strconv.Atoi(f[3])
		c, err3 := strconv.Atoi(f[4])
		if err1 != nil || err2 != nil || err3 != nil || w <= 0 || n < 1 || c < 1 {
			fatal("bad -spec entry %q", part)
		}
		if !serve.KernelValid(f[2]) {
			fatal("bad -spec entry %q: unknown kernel %q", part, f[2])
		}
		out = append(out, tenantSpec{tenant: f[0], weight: w, kernel: f[2], n: n, clients: c})
	}
	return out
}

func parseWeights(s string) map[string]float64 {
	if s == "" {
		return nil
	}
	m := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			fatal("bad -weights entry %q, want tenant=weight", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w <= 0 {
			fatal("bad -weights entry %q", part)
		}
		m[kv[0]] = w
	}
	return m
}

// runLoadgen drives a closed loop against an in-process server: every
// client submits one job, waits for it, and immediately submits the next —
// so offered load tracks service capacity and the queue stays saturated,
// which is exactly the regime where the discipline choice shows.
func runLoadgen(cfg serve.Config, specStr string, dur time.Duration) {
	specs := parseSpec(specStr)
	if cfg.Weights == nil {
		cfg.Weights = make(map[string]float64)
	}
	for _, ts := range specs {
		cfg.Weights[ts.tenant] = ts.weight
	}
	s := serve.New(cfg)
	defer s.Close()

	var stop atomic.Bool
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for _, ts := range specs {
		for c := 0; c < ts.clients; c++ {
			ts := ts
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					j, err := s.Submit(serve.Spec{Kernel: ts.kernel, N: ts.n, Tenant: ts.tenant})
					if err != nil {
						var sat *serve.SaturatedError
						if errors.As(err, &sat) {
							rejected.Add(1)
							// Closed loop with backpressure: honor the hint
							// (capped so shutdown stays prompt).
							d := sat.RetryAfter
							if d > 50*time.Millisecond {
								d = 50 * time.Millisecond
							}
							time.Sleep(d)
							continue
						}
						fatal("loadgen submit: %v", err)
					}
					<-j.Done()
				}
			}()
		}
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()

	st := s.Stats()
	fmt.Printf("pstld loadgen: sched=%s workers=%d duration=%v completed=%d canceled=%d rejected=%d (client-observed %d)\n",
		st.Discipline, st.Workers, dur, st.Completed, st.Canceled, st.Rejected, rejected.Load())
	t := &report.Table{Headers: []string{"Tenant", "Completed", "Rejected", "Mean", "p50", "p99", "Jobs/s"}}
	for _, ts := range st.Tenants {
		t.AddRow(ts.Tenant,
			fmt.Sprintf("%d", ts.Completed),
			fmt.Sprintf("%d", ts.Rejected),
			fmt.Sprintf("%.3g s", ts.MeanSeconds),
			fmt.Sprintf("%.3g s", ts.P50Seconds),
			fmt.Sprintf("%.3g s", ts.P99Seconds),
			fmt.Sprintf("%.1f", float64(ts.Completed)/dur.Seconds()))
	}
	fmt.Print(t.String())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pstld: "+format+"\n", args...)
	os.Exit(2)
}
