package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pstlbench/internal/flow"
	"pstlbench/internal/report"
	"pstlbench/internal/serve"
)

// ExtensionStream is an extension beyond the paper: it evaluates the
// continuous-ingest streaming plane (internal/flow) — event-time windows
// over unbounded feeds, each closed window compiled onto the fused
// chunk-dispatch pipelines and admitted through the same weighted-fair
// serving tier the batch tenants use. Three questions:
//
//  1. Exactness: does a live, concurrent stream replaying a deterministic
//     trace agree with an independently written sequential oracle on every
//     count (accepted / late / dropped / windows) and every per-window
//     checksum, for each windowed operator?
//  2. Backpressure: under a 4x burst over the buffer cap, do both
//     policies (drop-oldest and pause) keep peak buffered assignments at
//     or below the cap, with the overflow accounted exactly?
//  3. Sharing: with a bursty stream and a closed-loop batch tenant on one
//     pool, do both sides make progress and report sane latencies?
func ExtensionStream(cfg Config) *Report {
	rep := &Report{
		ID:    "ext-stream",
		Title: "Extension: streaming plane — windowed operators over unbounded feeds through the shared serving tier",
	}
	flowReplayAudit(cfg, rep)
	flowBackpressure(rep)
	flowSharedPool(cfg, rep)
	return rep
}

// flowEngine builds a small server + engine pair for one experiment run.
func flowEngine(workers int) (*serve.Server, *flow.Engine) {
	srv := serve.New(serve.Config{
		Workers:       workers,
		QueueCap:      4096,
		MaxConcurrent: 2,
	})
	eng, err := flow.NewEngine(flow.Config{Server: srv})
	if err != nil {
		panic(err)
	}
	return srv, eng
}

// flowReplayAudit replays one deterministic out-of-order trace per
// operator through a live stream and compares every count and checksum
// against the sequential oracle.
func flowReplayAudit(cfg Config, rep *Report) {
	const windowNS = int64(10 * time.Millisecond)
	n := 2000
	if cfg.Scale == 0 {
		n = 50000
	}
	type runRow struct {
		op      string
		slide   time.Duration
		st      flow.StreamStats
		want    flow.AuditResult
		verdict string
	}
	var rows []runRow
	allPass := true
	for _, op := range flow.OpKinds() {
		for _, slide := range []time.Duration{0, time.Duration(windowNS / 2)} {
			// Sliding windows double the trace's assignment count; run the
			// sliding variant only for reduce and wordcount to keep the
			// experiment quick.
			if slide != 0 && op != "reduce" && op != "wordcount" {
				continue
			}
			scfg := flow.StreamConfig{
				Name:           "audit-" + op,
				Window:         flow.WindowSpec{Size: time.Duration(windowNS), Slide: slide, Lateness: time.Duration(windowNS / 4)},
				Op:             flow.OpSpec{Kind: op},
				PendingWindows: n, // never drop windows at admission in the audit run
			}
			trace := flow.SynthTrace(n, 0, windowNS/64, windowNS/16, 97, 4*windowNS, 32, 42)
			want, err := flow.Audit(scfg, trace)
			if err != nil {
				rep.Notes = append(rep.Notes, fmt.Sprintf("audit %s: %v", op, err))
				continue
			}
			srv, eng := flowEngine(2)
			s, err := eng.AddStream(scfg)
			if err != nil {
				srv.Close()
				rep.Notes = append(rep.Notes, fmt.Sprintf("audit %s: %v", op, err))
				continue
			}
			flow.Replay(s, trace)
			eng.Close()
			st := s.Stats()
			srv.Close()

			verdict := "PASS"
			if st.Events != want.Accepted || st.LateEvents != want.Late ||
				st.DroppedEvents != want.DroppedEvents || st.Assigned != want.Assigned ||
				st.WindowsClosed != want.WindowsClosed || st.WindowsEmpty != want.WindowsEmpty ||
				st.WindowsDropped != 0 || st.WindowsCanceled != 0 ||
				st.PeakBuffered != want.PeakBuffered || st.Checksum != want.ChecksumTotal {
				verdict = "FAIL"
				allPass = false
			}
			rows = append(rows, runRow{op: op, slide: slide, st: st, want: want, verdict: verdict})
		}
	}
	t := &report.Table{
		Title:   fmt.Sprintf("deterministic replay vs sequential oracle: %d-event out-of-order trace (jitter, every 97th event 4 windows late), exact comparison of all counts and per-window checksums", n),
		Headers: []string{"op", "windowing", "events", "late", "assigned", "windows", "empty", "peak buf", "checksum", "verdict"},
	}
	for _, r := range rows {
		kind := "tumbling"
		if r.slide != 0 {
			kind = "sliding /2"
		}
		t.AddRow(r.op, kind,
			fmt.Sprintf("%d", r.st.Events), fmt.Sprintf("%d", r.st.LateEvents),
			fmt.Sprintf("%d", r.st.Assigned), fmt.Sprintf("%d", r.st.WindowsClosed),
			fmt.Sprintf("%d", r.st.WindowsEmpty), fmt.Sprintf("%d", r.st.PeakBuffered),
			fmt.Sprintf("%g", r.st.Checksum), r.verdict)
	}
	rep.Tables = append(rep.Tables, t)
	note := "exactness mechanism: windowed operators keep checksums integer-valued, so parallel chunk merges are bit-exact in any order and a concurrent stream must match the oracle to the last bit; late/dropped accounting is compared count-for-count"
	if !allPass {
		note = "AUDIT MISMATCH — a live stream diverged from the sequential oracle; see the FAIL rows above"
	}
	rep.Notes = append(rep.Notes, note)
}

// flowBackpressure pushes a 4x burst over the buffer cap under both
// policies and audits that the cap actually bounds buffer memory.
func flowBackpressure(rep *Report) {
	const cap = 256
	const burst = 4 * cap
	t := &report.Table{
		Title:   fmt.Sprintf("backpressure under a 4x burst: buffer cap %d assignments, %d events in one window's span", cap, burst),
		Headers: []string{"policy", "pushed", "accepted", "dropped", "paused", "peak buf", "cap bound", "conservation"},
	}
	for _, pol := range []flow.BackpressurePolicy{flow.DropOldest, flow.Pause} {
		scfg := flow.StreamConfig{
			Name:      "bp-" + pol.String(),
			Window:    flow.WindowSpec{Size: time.Second, Lateness: 0},
			Op:        flow.OpSpec{Kind: "reduce"},
			BufferCap: cap,
			Policy:    pol,
		}
		// All events land in one open window, so the only thing keeping
		// memory bounded is the policy.
		trace := flow.SynthTrace(burst, 0, int64(time.Millisecond)/4, 0, 0, 0, 8, 7)
		srv, eng := flowEngine(2)
		s, err := eng.AddStream(scfg)
		if err != nil {
			srv.Close()
			rep.Notes = append(rep.Notes, fmt.Sprintf("backpressure %s: %v", pol, err))
			continue
		}
		flow.Replay(s, trace)
		preClose := s.Stats() // peak before the flush drains the buffer
		eng.Close()
		st := s.Stats()
		srv.Close()

		bound := "PASS"
		if preClose.PeakBuffered > cap || st.PeakBuffered > cap {
			bound = "FAIL"
		}
		// Conservation: every accepted assignment is either in a closed
		// window, was evicted, or was still buffered at flush (none here).
		closedEvents := st.Assigned - st.DroppedEvents - int64(st.Buffered)
		conserv := "PASS"
		if pol == flow.DropOldest && (st.DroppedEvents != burst-cap || closedEvents != cap) {
			conserv = "FAIL"
		}
		if pol == flow.Pause && (st.PausedEvents != burst-cap || st.Events != cap) {
			conserv = "FAIL"
		}
		t.AddRow(pol.String(), fmt.Sprintf("%d", burst),
			fmt.Sprintf("%d", st.Events), fmt.Sprintf("%d", st.DroppedEvents),
			fmt.Sprintf("%d", st.PausedEvents), fmt.Sprintf("%d", st.PeakBuffered),
			bound, conserv)
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"backpressure mechanism: the cap counts (event, window) assignments; drop-oldest evicts from the front of the oldest open window (freshest data wins), pause refuses the push so the source must retry — either way peak buffered never exceeds the cap")
}

// flowSharedPool runs a live bursty stream beside a closed-loop batch
// tenant on one server and checks both make progress with sane latency.
func flowSharedPool(cfg Config, rep *Report) {
	srv := serve.New(serve.Config{
		Workers:       2,
		QueueCap:      4096,
		MaxConcurrent: 2,
		Weights:       map[string]float64{"stream": 1, "batch": 1},
	})
	defer srv.Close()
	eng, err := flow.NewEngine(flow.Config{Server: srv})
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("shared-pool run skipped: %v", err))
		return
	}
	s, err := eng.AddStream(flow.StreamConfig{
		Name:   "stream",
		Window: flow.WindowSpec{Size: 50 * time.Millisecond, Lateness: 10 * time.Millisecond},
		Op:     flow.OpSpec{Kind: "wordcount"},
	})
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("shared-pool run skipped: %v", err))
		return
	}

	batchN := 1 << 14
	if cfg.Scale == 0 {
		batchN = 1 << 20
	}
	var stop atomic.Bool
	var done, rejected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				j, err := srv.Submit(serve.Spec{Kernel: "reduce", N: batchN, Tenant: "batch"})
				if err != nil {
					rejected.Add(1)
					time.Sleep(time.Millisecond)
					continue
				}
				<-j.Done()
				done.Add(1)
				// Yield between jobs so the generator's ticker goroutine is
				// never starved by the submit/complete handoff chain on a
				// single-core box.
				runtime.Gosched()
			}
		}()
	}
	gen := &flow.Generator{Stream: s, Rate: 4000, Shape: flow.ShapeBursty, Period: 100 * time.Millisecond, Burst: 4, Seed: 3, Words: 64}
	genStop := make(chan struct{})
	var gs flow.GenStats
	var genWG sync.WaitGroup
	genWG.Add(1)
	go func() { defer genWG.Done(); gs = gen.Run(genStop) }()
	// Run until a handful of windows complete rather than for a fixed wall
	// time: on a loaded single-core CI box the generator's 1ms ticker can
	// starve for a while, and a fixed 400ms run would flake.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().WindowsDone < 3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	// Quiet the batch churn before joining the generator so its stop
	// signal is seen promptly.
	stop.Store(true)
	wg.Wait()
	close(genStop)
	genWG.Wait()
	eng.Close()
	st := s.Stats()

	verdict := "PASS"
	// Loose, CI-stable bounds: both sides finished work, no stream window
	// was lost, and per-window latency stayed under a second.
	if st.WindowsDone == 0 || st.WindowsDropped != 0 || done.Load() == 0 ||
		(st.P99Seconds != 0 && st.P99Seconds > 1.0) {
		verdict = "FAIL"
	}
	t := &report.Table{
		Measured: true,
		Title:    "one pool, two tenants: bursty wordcount stream (4x burst, 100ms period) beside a closed-loop batch reduce tenant under weighted fair queuing",
		Headers:  []string{"side", "work finished", "rejected/dropped", "p50", "p99", "verdict"},
	}
	t.AddRow("stream (windows)", fmt.Sprintf("%d done of %d closed", st.WindowsDone, st.WindowsClosed),
		fmt.Sprintf("%d", st.WindowsDropped),
		fmt.Sprintf("%.4fs", st.P50Seconds), fmt.Sprintf("%.4fs", st.P99Seconds), verdict)
	t.AddRow("batch (jobs)", fmt.Sprintf("%d", done.Load()), fmt.Sprintf("%d", rejected.Load()), "-", "-", "-")
	rep.Tables = append(rep.Tables, t)
	rep.MeasuredNotes = append(rep.MeasuredNotes,
		fmt.Sprintf("generator emitted %d events (%d accepted); each closed window became one serve job under tenant %q, admitted through the same WFQ lane structure as the batch tenant — neither side can starve the other", gs.Generated, gs.Accepted, "stream"))
}
