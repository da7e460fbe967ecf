// Command pstlstream is the continuous-ingest streaming driver: it builds
// an internal/flow engine over a shared serving layer, runs shaped load
// generators (or a deterministic replayed trace) against per-tenant
// streams, optionally runs a closed-loop batch tenant against the SAME
// server, and reports per-window p50/p99, watermark lag, and exact
// late/dropped accounting.
//
//	pstlstream                                    # two streams, bursty+steady, 5s
//	pstlstream -streams wc:wordcount:bursty:4000 -duration 10s -policy pause
//	pstlstream -windows 40 -json-out report.json  # stop after 40 windows
//	pstlstream -replay 20000 -seed 7              # deterministic trace + audit
//	pstlstream -batch batch:sort:65536:2          # batch tenant sharing the pool
//	pstlstream -ingest :8080 -duration 1m         # HTTP ingest + /metrics up
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstlbench/internal/flow"
	"pstlbench/internal/obs"
	"pstlbench/internal/report"
	"pstlbench/internal/serve"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pstlstream: "+format+"\n", args...)
	os.Exit(1)
}

// streamSpec is one parsed -streams entry: name:op:shape:rate.
type streamSpec struct {
	name  string
	op    string
	shape flow.Shape
	rate  float64
}

func parseStreams(s string) []streamSpec {
	var out []streamSpec
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 4 {
			fatal("bad -streams entry %q, want name:op:shape:rate", part)
		}
		shape, ok := flow.ParseShape(f[2])
		if !ok {
			fatal("bad shape %q in %q (want one of %v)", f[2], part, flow.Shapes())
		}
		rate, err := strconv.ParseFloat(f[3], 64)
		if err != nil || rate <= 0 {
			fatal("bad rate %q in %q", f[3], part)
		}
		out = append(out, streamSpec{name: f[0], op: f[1], shape: shape, rate: rate})
	}
	return out
}

// batchSpec is the parsed -batch entry: tenant:kernel:n:clients.
type batchSpec struct {
	tenant  string
	kernel  string
	n       int
	clients int
}

func parseBatch(s string) (batchSpec, bool) {
	if s == "" {
		return batchSpec{}, false
	}
	f := strings.Split(s, ":")
	if len(f) != 4 {
		fatal("bad -batch %q, want tenant:kernel:n:clients", s)
	}
	n, err1 := strconv.Atoi(f[2])
	c, err2 := strconv.Atoi(f[3])
	if err1 != nil || err2 != nil || n < 1 || c < 1 {
		fatal("bad -batch %q", s)
	}
	return batchSpec{tenant: f[0], kernel: f[1], n: n, clients: c}, true
}

// windowReport is one per-window line of the JSON report.
type windowReport struct {
	Start          int64   `json:"start_unix_ns"`
	End            int64   `json:"end_unix_ns"`
	Events         int     `json:"events"`
	State          string  `json:"state"`
	Checksum       float64 `json:"checksum,omitempty"`
	LatencySeconds float64 `json:"latency_seconds"`
	Flushed        bool    `json:"flushed,omitempty"`
}

// streamReport is one stream's section of the JSON report.
type streamReport struct {
	flow.StreamStats
	Generator *flow.GenStats `json:"generator,omitempty"`
	Windows   []windowReport `json:"windows"`
}

// batchReport summarizes the concurrent batch tenant.
type batchReport struct {
	Tenant     string  `json:"tenant"`
	Kernel     string  `json:"kernel"`
	N          int     `json:"n"`
	Clients    int     `json:"clients"`
	Completed  int64   `json:"completed"`
	Rejected   int64   `json:"rejected"`
	P50Seconds float64 `json:"p50_seconds,omitempty"`
	P99Seconds float64 `json:"p99_seconds,omitempty"`
}

// fullReport is the -json-out document.
type fullReport struct {
	DurationSeconds float64        `json:"duration_seconds"`
	Streams         []streamReport `json:"streams"`
	Batch           []batchReport  `json:"batch_tenants,omitempty"`
	Audit           *auditReport   `json:"audit,omitempty"`
}

// auditReport records the replay-mode exactness check.
type auditReport struct {
	Match         bool    `json:"match"`
	Accepted      int64   `json:"accepted"`
	Late          int64   `json:"late"`
	DroppedEvents int64   `json:"dropped_events"`
	WindowsClosed int64   `json:"windows_closed"`
	PeakBuffered  int     `json:"peak_buffered"`
	ChecksumTotal float64 `json:"checksum_total"`
	Detail        string  `json:"detail,omitempty"`
}

func main() {
	var (
		streamsStr = flag.String("streams", "wc:wordcount:bursty:2000,mc:montecarlo:steady:400",
			"comma-separated streams, each name:op:shape:rate (ops: "+strings.Join(flow.OpKinds(), ",")+"; shapes: steady,bursty,diurnal,step)")
		window   = flag.Duration("window", 250*time.Millisecond, "event-time window size")
		slide    = flag.Duration("slide", 0, "window slide (0 = tumbling)")
		lateness = flag.Duration("lateness", 50*time.Millisecond, "allowed out-of-orderness before an event is late")
		buffer   = flag.Int("buffer", 65536, "per-stream buffer cap in (event, window) assignments — the memory bound")
		policy   = flag.String("policy", "drop", "backpressure policy at the cap: drop (oldest) or pause")
		duration = flag.Duration("duration", 5*time.Second, "generator run time")
		windows  = flag.Int("windows", 0, "stop after this many terminal windows across all streams (0 = run for -duration)")
		burst    = flag.Float64("burst", 4, "shape peak multiplier (bursty/diurnal/step)")
		period   = flag.Duration("period", time.Second, "shape pattern period")
		words    = flag.Int("words", 128, "key dictionary size for wordcount streams")
		seed     = flag.Uint64("seed", 1, "generator / trace seed")
		replayN  = flag.Int("replay", 0, "replace generators with a deterministic n-event trace per stream, audited against the sequential oracle")

		workers     = flag.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
		queueCap    = flag.Int("queue", 256, "serve admission queue capacity")
		concurrency = flag.Int("concurrency", 2, "serve max concurrent jobs")
		batchStr    = flag.String("batch", "", "concurrent closed-loop batch tenant, tenant:kernel:n:clients (shares the pool and WFQ with the streams)")

		ingest     = flag.String("ingest", "", "also serve the flow HTTP ingest surface (plus /metrics, /healthz) on this address")
		jsonOut    = flag.String("json-out", "", "write the full JSON report to this file ('-' for stdout)")
		metricsOut = flag.String("metrics-out", "", "write a final Prometheus text scrape to this file")
	)
	flag.Parse()

	specs := parseStreams(*streamsStr)
	bspec, hasBatch := parseBatch(*batchStr)

	pol, ok := flow.ParsePolicy(*policy)
	if !ok {
		fatal("bad -policy %q, want drop or pause", *policy)
	}

	// One server, one pool, one WFQ: streams and the batch tenant are
	// peers under fair queuing.
	weights := map[string]float64{}
	for _, sp := range specs {
		weights[sp.name] = 1
	}
	if hasBatch {
		weights[bspec.tenant] = 1
	}
	met := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Workers:       *workers,
		QueueCap:      *queueCap,
		MaxConcurrent: *concurrency,
		Weights:       weights,
		Metrics:       met,
	})
	defer srv.Close()

	var mu sync.Mutex
	perStream := make(map[string][]windowReport)
	eng, err := flow.NewEngine(flow.Config{
		Server: srv, Metrics: met,
		OnResult: func(r flow.WindowResult) {
			mu.Lock()
			perStream[r.Stream] = append(perStream[r.Stream], windowReport{
				Start: r.Start, End: r.End, Events: r.Events, State: r.State,
				Checksum: r.Checksum, LatencySeconds: r.LatencySeconds,
				Flushed: r.Flushed,
			})
			mu.Unlock()
		},
	})
	if err != nil {
		fatal("%v", err)
	}

	var auditCfg flow.StreamConfig // replay mode audits the first stream
	for i, sp := range specs {
		cfg := flow.StreamConfig{
			Name:   sp.name,
			Window: flow.WindowSpec{Size: *window, Slide: *slide, Lateness: *lateness},
			Op:     flow.OpSpec{Kind: sp.op},
			// Replay needs deep pending queues so the audit comparison is
			// not perturbed by admission-drop nondeterminism.
			BufferCap: *buffer,
			Policy:    pol,
		}
		if *replayN > 0 {
			cfg.PendingWindows = *replayN
		}
		if i == 0 {
			auditCfg = cfg
		}
		if _, err := eng.AddStream(cfg); err != nil {
			fatal("%v", err)
		}
	}

	// Optional HTTP surface: ingest + metrics + healthz on one mux.
	if *ingest != "" {
		ln, err := net.Listen("tcp", *ingest)
		if err != nil {
			fatal("listen %s: %v", *ingest, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/streams", eng.Handler())
		mux.Handle("/streams/", eng.Handler())
		mux.Handle("/healthz", eng.Handler())
		mux.Handle("GET /metrics", serve.MetricsHandler(met))
		go http.Serve(ln, mux)
		fmt.Fprintf(os.Stderr, "pstlstream: ingest listening on %s\n", ln.Addr())
	}

	// Batch tenant: a closed loop of clients against the same server.
	var batchDone, batchRej atomic.Int64
	var stopBatch atomic.Bool
	var batchWG sync.WaitGroup
	if hasBatch {
		for c := 0; c < bspec.clients; c++ {
			batchWG.Add(1)
			go func() {
				defer batchWG.Done()
				for !stopBatch.Load() {
					j, err := srv.Submit(serve.Spec{Kernel: bspec.kernel, N: bspec.n, Tenant: bspec.tenant})
					if err != nil {
						var sat *serve.SaturatedError
						if errors.As(err, &sat) {
							batchRej.Add(1)
							d := sat.RetryAfter
							if d > 20*time.Millisecond {
								d = 20 * time.Millisecond
							}
							time.Sleep(d)
							continue
						}
						fatal("batch submit: %v", err)
					}
					<-j.Done()
					batchDone.Add(1)
					// Yield between jobs: on a single-core box the
					// zero-sleep submit/complete handoff chain can starve
					// other runnable goroutines (the generators) for a
					// long time.
					runtime.Gosched()
				}
			}()
		}
	}
	stopBatchClients := func() {
		if hasBatch {
			stopBatch.Store(true)
			batchWG.Wait()
		}
	}

	start := time.Now()
	genStats := make(map[string]*flow.GenStats)
	var audit *auditReport
	if *replayN > 0 {
		// Deterministic replay: one synthetic trace per stream, the first
		// audited against the independent oracle.
		for i, sp := range specs {
			s := eng.Stream(sp.name)
			trace := flow.SynthTrace(*replayN, 0, int64(*window)/64, int64(*window)/16,
				97, 4*int64(*window), *words, *seed+uint64(i))
			acc, late, paused := flow.Replay(s, trace)
			gs := &flow.GenStats{Generated: int64(*replayN), Accepted: acc, Late: late, Paused: paused}
			genStats[sp.name] = gs
			if i == 0 {
				want, err := flow.Audit(auditCfg, trace)
				if err != nil {
					fatal("audit: %v", err)
				}
				s.Close() // settle every window job before comparing
				audit = compareAudit(s.Stats(), want)
			}
		}
	} else {
		// Live generators until -duration or -windows.
		stopGen := make(chan struct{})
		var genWG sync.WaitGroup
		var genMu sync.Mutex
		for _, sp := range specs {
			sp := sp
			g := &flow.Generator{
				Stream: eng.Stream(sp.name), Rate: sp.rate, Shape: sp.shape,
				Period: *period, Burst: *burst, Seed: *seed, Words: *words,
			}
			genWG.Add(1)
			go func() {
				defer genWG.Done()
				st := g.Run(stopGen)
				genMu.Lock()
				genStats[sp.name] = &st
				genMu.Unlock()
			}()
		}
		if *windows > 0 {
			for eng.WindowsFinished() < int64(*windows) {
				time.Sleep(10 * time.Millisecond)
			}
		} else {
			time.Sleep(*duration)
		}
		// Quiet the batch churn before joining the generators so their
		// stop signal is seen promptly even on a loaded box.
		stopBatchClients()
		close(stopGen)
		genWG.Wait()
	}
	eng.Close() // flush and settle every remaining window
	stopBatchClients()
	elapsed := time.Since(start)

	// Assemble the report.
	rep := fullReport{DurationSeconds: elapsed.Seconds(), Audit: audit}
	mu.Lock()
	for _, sp := range specs {
		s := eng.Stream(sp.name)
		rep.Streams = append(rep.Streams, streamReport{
			StreamStats: s.Stats(),
			Generator:   genStats[sp.name],
			Windows:     perStream[sp.name],
		})
	}
	mu.Unlock()
	if hasBatch {
		br := batchReport{
			Tenant: bspec.tenant, Kernel: bspec.kernel, N: bspec.n,
			Clients: bspec.clients, Completed: batchDone.Load(), Rejected: batchRej.Load(),
		}
		for _, ts := range srv.Stats().Tenants {
			if ts.Tenant == bspec.tenant {
				br.P50Seconds, br.P99Seconds = ts.P50Seconds, ts.P99Seconds
			}
		}
		rep.Batch = append(rep.Batch, br)
	}

	printReport(rep)
	if *jsonOut != "" {
		writeJSONReport(*jsonOut, rep)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal("%v", err)
		}
		met.WritePrometheus(f)
		f.Close()
	}
	if audit != nil && !audit.Match {
		fatal("audit mismatch: %s", audit.Detail)
	}
}

// compareAudit checks a settled stream against the oracle, field by field.
func compareAudit(st flow.StreamStats, want flow.AuditResult) *auditReport {
	rep := &auditReport{
		Accepted: want.Accepted, Late: want.Late, DroppedEvents: want.DroppedEvents,
		WindowsClosed: want.WindowsClosed, PeakBuffered: want.PeakBuffered,
		ChecksumTotal: want.ChecksumTotal,
	}
	var bad []string
	check := func(name string, got, exp any) {
		if fmt.Sprint(got) != fmt.Sprint(exp) {
			bad = append(bad, fmt.Sprintf("%s=%v want %v", name, got, exp))
		}
	}
	check("events", st.Events, want.Accepted)
	check("late", st.LateEvents, want.Late)
	check("dropped", st.DroppedEvents, want.DroppedEvents)
	check("windows_closed", st.WindowsClosed, want.WindowsClosed)
	check("windows_empty", st.WindowsEmpty, want.WindowsEmpty)
	check("peak_buffered", st.PeakBuffered, want.PeakBuffered)
	check("windows_dropped", st.WindowsDropped, int64(0))
	check("checksum", st.Checksum, want.ChecksumTotal)
	rep.Match = len(bad) == 0
	rep.Detail = strings.Join(bad, "; ")
	return rep
}

// printReport writes the human-readable summary to stdout.
func printReport(rep fullReport) {
	t := &report.Table{
		Title: fmt.Sprintf("pstlstream: %.1fs", rep.DurationSeconds),
		Headers: []string{"Stream", "Op", "Policy", "Events", "Late", "Dropped", "Paused",
			"Windows", "Done", "WDropped", "PeakBuf", "WM lag", "p50", "p99"},
	}
	for _, s := range rep.Streams {
		t.AddRow(s.Stream, s.Op, s.Policy,
			fmt.Sprintf("%d", s.Events), fmt.Sprintf("%d", s.LateEvents),
			fmt.Sprintf("%d", s.DroppedEvents), fmt.Sprintf("%d", s.PausedEvents),
			fmt.Sprintf("%d", s.WindowsClosed), fmt.Sprintf("%d", s.WindowsDone),
			fmt.Sprintf("%d", s.WindowsDropped), fmt.Sprintf("%d", s.PeakBuffered),
			fmt.Sprintf("%.3gs", s.WatermarkLagSeconds),
			fmt.Sprintf("%.3gs", s.P50Seconds), fmt.Sprintf("%.3gs", s.P99Seconds))
	}
	fmt.Print(t.String())
	for _, b := range rep.Batch {
		fmt.Printf("batch tenant %s: %s n=%d clients=%d completed=%d rejected=%d p50=%.3gs p99=%.3gs\n",
			b.Tenant, b.Kernel, b.N, b.Clients, b.Completed, b.Rejected, b.P50Seconds, b.P99Seconds)
	}
	if rep.Audit != nil {
		status := "MATCH"
		if !rep.Audit.Match {
			status = "MISMATCH: " + rep.Audit.Detail
		}
		fmt.Printf("audit vs sequential oracle: %s (events=%d late=%d dropped=%d windows=%d peak=%d checksum=%v)\n",
			status, rep.Audit.Accepted, rep.Audit.Late, rep.Audit.DroppedEvents,
			rep.Audit.WindowsClosed, rep.Audit.PeakBuffered, rep.Audit.ChecksumTotal)
	}
}

func writeJSONReport(path string, rep fullReport) {
	var out *os.File
	if path == "-" {
		out = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal("%v", err)
	}
}
