package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pstlbench/internal/obs"
	"pstlbench/internal/report"
	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
	"pstlbench/internal/stats"
)

// ExtensionObs is an extension beyond the paper: it validates the
// end-to-end observability pillar (internal/obs) on the real sharded tier.
// Two questions, both answered using only the exported surfaces — the
// terminal span log (/spans) and the metrics registry (/metrics) — never
// by reaching into server internals:
//
//  1. Attribution: when one shard runs hot, do the lifecycle spans
//     attribute its p99 regression to queue wait rather than execute time?
//     That distinction is the entire point of per-phase stamps: "slow
//     because overloaded" and "slow because the kernel regressed" demand
//     opposite fixes, and a latency histogram alone cannot tell them apart.
//  2. Durability: does a kill-and-replay cycle preserve each replayed
//     job's pre-crash span history — above all the original admission
//     stamp — so queue-wait attribution stays honest across a restart?
func ExtensionObs(cfg Config) *Report {
	rep := &Report{
		ID:    "ext-obs",
		Title: "End-to-end observability: span-based p99 attribution on a hot shard and phase history across kill-and-replay",
	}
	obsAttribution(rep)
	obsReplaySpans(rep)
	return rep
}

// tenantOn finds a tenant name the ring homes on the wanted shard.
func tenantOn(ring *shard.Ring, want int, prefix string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if ring.Shard(name) == want {
			return name
		}
	}
}

// obsAttribution floods shard 0 of a 2-shard router with a same-tenant
// backlog while shard 1 serves only a light probe, then reads every
// terminal span back from the shared span log and splits each shard's p99
// into queue-wait and execute. Spill and migration are disabled so the
// imbalance persists — this run is about diagnosing a hot shard, not
// curing it.
func obsAttribution(rep *Report) {
	reg := obs.NewRegistry()
	spans := obs.NewSpanLog(4096)
	r, err := shard.New(shard.Config{
		Shards: 2,
		// FIFO on purpose: under WFQ the probe tenant's fresh lane would be
		// served ahead of the backlog, which is the cure — this run wants
		// the disease on display.
		Serve:            serve.Config{Workers: 1, QueueCap: 256, MaxConcurrent: 1, Discipline: serve.FIFO},
		SpillThreshold:   2, // > any reachable Load: admission never spills
		MigrateThreshold: 2,
		RebalanceEvery:   -1, // no background rebalancer
		Metrics:          reg,
		Spans:            spans,
	})
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("attribution run skipped: %v", err))
		return
	}
	ring := shard.NewRing(2)
	hot := tenantOn(ring, 0, "hot")
	probe0 := tenantOn(ring, 0, "probe-hot")
	probe1 := tenantOn(ring, 1, "probe-cold")

	// Warm both pools first so the probes' execute column measures the
	// kernel, not first-touch page faults.
	r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 13, Tenant: tenantOn(ring, 0, "warm")})
	r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 13, Tenant: tenantOn(ring, 1, "warm")})
	waitDrain(r, 30*time.Second)

	// The backlog: one tenant, 24 mid-size sorts, all homed on shard 0 and
	// drained by its single worker one at a time. Probes land last, so the
	// hot-shard probe queues behind the whole backlog while the cold-shard
	// probe runs almost immediately — identical work, different wait.
	const backlog = 24
	for i := 0; i < backlog; i++ {
		if _, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 17, Tenant: hot}); err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("attribution submit: %v", err))
		}
	}
	for i := 0; i < 4; i++ {
		r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 13, Tenant: probe0})
		r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 13, Tenant: probe1})
	}
	waitDrain(r, 30*time.Second)
	r.Close()

	// Everything below this line uses the exported span log only. The probe
	// tenants are the controlled comparison: identical jobs, one homed on
	// the hot shard and one on the cold, so the p99 gap between them IS the
	// regression — and the spans say which phase produced it.
	type agg struct{ total, queue, exec []float64 }
	perShard := map[int]*agg{}
	perProbe := map[string]*agg{probe0: {}, probe1: {}}
	for _, sp := range spans.Spans() {
		sh := int(sp.Shard())
		if perShard[sh] == nil {
			perShard[sh] = &agg{}
		}
		for _, e := range []*agg{perShard[sh], perProbe[sp.Tenant]} {
			if e == nil {
				continue
			}
			e.total = append(e.total, sp.TotalSeconds())
			e.queue = append(e.queue, sp.QueueSeconds())
			e.exec = append(e.exec, sp.ExecSeconds())
		}
	}
	p99 := func(e *agg) (t, q, x float64) {
		if e == nil {
			return
		}
		return stats.Percentile(e.total, 0.99), stats.Percentile(e.queue, 0.99), stats.Percentile(e.exec, 0.99)
	}
	t := &report.Table{
		Measured: true,
		Title:    fmt.Sprintf("2 shards, 1 worker each, %d-job backlog pinned to shard 0, spill/migration off; per-shard p99 from /spans data", backlog),
		Headers:  []string{"shard", "jobs", "p99 total", "p99 queue-wait", "p99 execute"},
	}
	for sh := 0; sh < 2; sh++ {
		p99t, p99q, p99e := p99(perShard[sh])
		n := 0
		if perShard[sh] != nil {
			n = len(perShard[sh].total)
		}
		t.AddRow(fmt.Sprintf("%d", sh), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3gs", p99t), fmt.Sprintf("%.3gs", p99q), fmt.Sprintf("%.3gs", p99e))
	}
	rep.Tables = append(rep.Tables, t)

	ht, hq, hx := p99(perProbe[probe0])
	ct, cq, cx := p99(perProbe[probe1])
	pt := &report.Table{
		Measured: true,
		Title:    "the controlled pair: identical probe jobs (reduce n=8192) submitted behind the backlog, one tenant per shard",
		Headers:  []string{"probe", "shard", "p99 total", "p99 queue-wait", "p99 execute"},
	}
	pt.AddRow(probe0, "0 (hot)", fmt.Sprintf("%.3gs", ht), fmt.Sprintf("%.3gs", hq), fmt.Sprintf("%.3gs", hx))
	pt.AddRow(probe1, "1 (cold)", fmt.Sprintf("%.3gs", ct), fmt.Sprintf("%.3gs", cq), fmt.Sprintf("%.3gs", cx))
	rep.Tables = append(rep.Tables, pt)
	rep.MeasuredNotes = append(rep.MeasuredNotes, attributionNote(ht, hq, hx, ct, cq, cx))
}

// attributionNote words the controlled pair's verdict from its six p99
// values (total, queue-wait and execute of the hot and the cold probe).
// The verdict holds when queue-wait explains >= 80% of the total gap.
// Execute is the span from start to finish in wall time, so it also counts
// time a started probe waits for a CPU; the note claims the kernel did not
// move only when the two execute values are within 2x of each other.
func attributionNote(ht, hq, hx, ct, cq, cx float64) string {
	gap, qgap := ht-ct, hq-cq
	attribution := 0.0
	if gap > 0 {
		attribution = qgap / gap
	}
	verdict := "queue-wait explains the hot-shard probe's p99 regression"
	if gap <= 0 || attribution < 0.8 {
		verdict = "ATTRIBUTION UNCLEAR — expected queue-wait to explain >= 80% of the probe p99 gap"
	}
	execute := fmt.Sprintf("execute p99 (start-to-finish wall time, CPU wait included) is %.3gs hot and %.3gs cold", hx, cx)
	if max(hx, cx) <= 2*min(hx, cx) {
		execute += ", within 2x: the kernel did not move, and a kernel regression would move this column instead"
	} else {
		execute += ", more than 2x apart: execute also counts the time a started probe waits for a CPU the other shard's jobs hold, so this gap can be CPU contention between the shards rather than a slower kernel"
	}
	return fmt.Sprintf("%s: the hot probe runs %.1fx slower end-to-end than its cold twin and queue-wait accounts for %.0f%% of the gap; %s",
		verdict, ht/ct, 100*attribution, execute)
}

// obsReplaySpans builds a backlog on a durable router, kills it, restarts
// it with a fresh span log, and checks every replayed job's span against
// the two guarantees: it carries the "replayed" phase, and its admission
// stamp predates the kill — the pre-crash history survived the process.
func obsReplaySpans(rep *Report) {
	dir, err := os.MkdirTemp("", "pstl-obs-*")
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("replay run skipped: %v", err))
		return
	}
	defer os.RemoveAll(dir)
	cfg := shard.Config{
		Shards:  2,
		Serve:   serve.Config{Workers: 1, QueueCap: 64, MaxConcurrent: 1},
		LogPath: filepath.Join(dir, "joblog.jsonl"),
		Spans:   obs.NewSpanLog(1024),
	}
	r, err := shard.New(cfg)
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("replay run skipped: %v", err))
		return
	}
	// Two large sorts pin the run slots; the small jobs behind them are
	// still queued when the kill lands.
	for i := 0; i < 2; i++ {
		r.Submit(serve.Spec{Kernel: "sort", N: 1 << 20, Tenant: fmt.Sprintf("blk-%d", i)})
	}
	const jobs = 30
	for i := 0; i < jobs; i++ {
		r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 12, Tenant: fmt.Sprintf("tenant-%d", i%5)})
	}
	r.Kill()
	killNS := time.Now().UnixNano()

	cfg.Spans = obs.NewSpanLog(1024) // fresh ring: history must come from the log
	r2, err := shard.New(cfg)
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("replay reopen failed: %v", err))
		return
	}
	replayed := r2.Stats().Replayed
	waitDrain(r2, 30*time.Second)
	r2.Close()

	withPhase, preCrash, terminal := 0, 0, 0
	for _, sp := range cfg.Spans.Spans() {
		if sp.At(obs.PhaseReplayed) == 0 {
			continue
		}
		withPhase++
		if adm := sp.At(obs.PhaseAdmitted); adm > 0 && adm < killNS {
			preCrash++
		}
		if _, _, ok := sp.Terminal(); ok {
			terminal++
		}
	}
	verdict := "PASS"
	if replayed == 0 || int64(withPhase) != replayed || preCrash != withPhase || terminal != withPhase {
		verdict = "FAIL"
	}
	t := &report.Table{
		Measured: true,
		Title:    "span history across kill-and-replay: fresh span ring after restart, history reloaded from the job log",
		Headers:  []string{"metric", "value"},
	}
	t.AddRow("jobs replayed as pending", fmt.Sprintf("%d", replayed))
	t.AddRow("replayed spans carrying the replayed phase", fmt.Sprintf("%d", withPhase))
	t.AddRow("of those, admission stamp predates the kill", fmt.Sprintf("%d", preCrash))
	t.AddRow("of those, reached a terminal phase after restart", fmt.Sprintf("%d", terminal))
	t.AddRow("verdict", verdict)
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"mechanism: every job-log record carries the span's phase map at append time; replay seeds the new incarnation's span from it and stamps the replayed phase, so a post-restart queue-wait reading still measures from the client's original admission")
}

// waitDrain blocks until the router has nothing queued, running, or in
// backlog, or the deadline passes.
func waitDrain(r *shard.Router, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		st := r.Stats()
		busy := st.Backlog
		for _, ss := range st.PerShard {
			busy += ss.Queued + ss.Running
		}
		if busy == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
