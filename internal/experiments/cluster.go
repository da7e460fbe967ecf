package experiments

import (
	"fmt"
	"net/http/httptest"
	"time"

	"pstlbench/internal/cluster"
	"pstlbench/internal/report"
	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
)

// ExtensionCluster is an extension beyond the paper: it evaluates the
// distributed shard plane (internal/cluster) — the router driving worker
// processes over HTTP with health-checked failover and live ring growth.
// Two questions, both answered on the real router and real transport
// (workers are in-process serve.Servers behind real HTTP listeners, so
// the runs are fast and CI-stable while every RPC crosses a socket; the
// multi-process equivalent with SIGKILL is `make cluster-smoke` / CI):
//
//  1. Failover: when a worker dies mid-backlog, does the health plane
//     detect it unassisted, and does every acknowledged job still reach
//     exactly one terminal state with an intact checksum?
//  2. Growth: does joining a worker under live traffic remap only
//     ~1/(N+1) of tenants, without disturbing in-flight jobs?
func ExtensionCluster(cfg Config) *Report {
	rep := &Report{
		ID:    "ext-cluster",
		Title: "Distributed shard plane: worker-death failover and live ring growth over real HTTP transport",
	}
	clusterFailover(cfg, rep)
	clusterJoin(rep)
	return rep
}

// clusterWorker is one worker "process": a serve.Server reachable only
// through its HTTP listener, like a separate pstld -worker.
type clusterWorker struct {
	s  *serve.Server
	ts *httptest.Server
}

func startClusterWorker(cfg serve.Config) *clusterWorker {
	s := serve.New(cfg)
	return &clusterWorker{s: s, ts: httptest.NewServer(s.Handler())}
}

func (w *clusterWorker) handle() shard.ShardHandle {
	return cluster.NewRemoteShard(cluster.RemoteConfig{
		Client: cluster.ClientConfig{
			BaseURL:     w.ts.URL,
			Timeout:     time.Second,
			Retries:     2,
			BackoffBase: time.Millisecond,
		},
		PollEvery: 2 * time.Millisecond,
	})
}

// kill severs the listener abruptly — the transport-level equivalent of
// SIGKILL: every future RPC fails, in-flight connections break.
func (w *clusterWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
}

func (w *clusterWorker) stop() {
	w.ts.Close()
	w.s.Close()
}

// drainCluster waits until the router has delivered a terminal state for
// every listed job, returning how many landed "done" with the expected
// checksum and how many finished otherwise.
func drainCluster(r *shard.Router, ids []string, sums map[string]float64, timeout time.Duration) (done, bad int) {
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for {
			info, ok := r.Get(id)
			if ok && (info.State == "done" || info.State == "canceled") {
				if info.State == "done" && info.Checksum == sums[id] {
					done++
				} else {
					bad++
				}
				break
			}
			if time.Now().After(deadline) {
				bad++
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The completion counter trails Get by up to one poll cycle; settle it
	// so the exactly-once row reads the final number.
	for time.Now().Before(deadline) && r.Stats().Completed < int64(done) {
		time.Sleep(time.Millisecond)
	}
	return done, bad
}

// clusterFailover builds a backlog across two workers, kills one, and
// audits detection latency and exactly-once completion delivery.
func clusterFailover(cfg Config, rep *Report) {
	workers := []*clusterWorker{
		startClusterWorker(serve.Config{Workers: 1, QueueCap: 256, MaxConcurrent: 1}),
		startClusterWorker(serve.Config{Workers: 1, QueueCap: 256, MaxConcurrent: 1}),
	}
	r, err := shard.New(shard.Config{
		Handles:        []shard.ShardHandle{workers[0].handle(), workers[1].handle()},
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   1,
		DeadAfter:      3,
		RebalanceEvery: 10 * time.Millisecond,
	})
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("failover run skipped: %v", err))
		return
	}
	defer func() {
		r.Close()
		workers[1].stop()
	}()

	// The kill fires from a timer while submissions are still streaming in:
	// with kernels and transport sharing the CPU budget, killing after the
	// loop would find the backlog already drained. Mid-stream, part of the
	// acknowledged backlog is queued on the dying shard and must be
	// re-placed, and submissions racing the death exercise the
	// retry-then-spill path (an acked job is acked wherever it landed).
	type killMark struct {
		at  time.Time
		pre shard.Stats
	}
	killed := make(chan killMark, 1)
	go func() {
		time.Sleep(120 * time.Millisecond)
		pre := r.Stats()
		workers[0].kill()
		killed <- killMark{at: time.Now(), pre: pre}
	}()

	// Large sorts pin the single run slot on each shard; the smaller sorts
	// behind them are the queued backlog the death must not lose.
	var ids []string
	sums := map[string]float64{}
	blockN := 1 << 18
	for i := 0; i < 4; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "sort", N: blockN, Tenant: fmt.Sprintf("blk-%d", i)})
		if err != nil {
			continue
		}
		ids = append(ids, j.ID())
		sums[j.ID()] = serve.ExpectedChecksum("sort", blockN)
	}
	jobs := 24 + 2*cfg.Scale
	n := 1 << 14
	for i := 0; i < jobs; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "sort", N: n, Tenant: fmt.Sprintf("tenant-%d", i%8)})
		if err != nil {
			continue
		}
		ids = append(ids, j.ID())
		sums[j.ID()] = serve.ExpectedChecksum("sort", n)
	}
	mark := <-killed
	preKill := mark.pre
	detect := time.Duration(-1)
	for deadline := mark.at.Add(10 * time.Second); time.Now().Before(deadline); {
		if r.HealthOf(0) == shard.Dead {
			detect = time.Since(mark.at)
			break
		}
		time.Sleep(time.Millisecond)
	}
	done, bad := drainCluster(r, ids, sums, 60*time.Second)
	st := r.Stats()

	verdict := "PASS"
	if detect < 0 || done != len(ids) || bad != 0 || st.Completed != int64(len(ids)) {
		verdict = "FAIL"
	}
	t := &report.Table{
		Measured: true,
		Title: fmt.Sprintf("worker-death failover: 2 remote shards over HTTP, %d acked sorts (slot-pinning n=%d + backlog n=%d), one worker killed mid-backlog (heartbeat 5ms, dead after 3 misses)",
			len(ids), blockN, n),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("acknowledged jobs", fmt.Sprintf("%d", len(ids)))
	t.AddRow("completed before kill", fmt.Sprintf("%d", preKill.Completed))
	t.AddRow("dead detected after", fmt.Sprintf("%v", detect.Round(time.Millisecond)))
	t.AddRow("jobs re-placed on survivor", fmt.Sprintf("%d", st.Replaced))
	t.AddRow("shard deaths", fmt.Sprintf("%d", st.Deaths))
	t.AddRow("done with intact checksum", fmt.Sprintf("%d of %d", done, len(ids)))
	t.AddRow("lost / wrong-checksum / stuck", fmt.Sprintf("%d", bad))
	t.AddRow("terminal deliveries (router counter)", fmt.Sprintf("%d", st.Completed))
	t.AddRow("exactly-once verdict", verdict)
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"failover mechanism: missed heartbeats walk the shard healthy -> suspect -> dead; on death the ring drops the member and the router re-places the dead shard's acknowledged backlog from its own specs — kernels are deterministic, so re-execution on a survivor reproduces the same checksum, and only the router delivers terminal states (exactly one per job)")
}

// clusterJoin measures the remap fraction of a live join and checks that
// traffic in flight across the join is undisturbed.
func clusterJoin(rep *Report) {
	workers := []*clusterWorker{
		startClusterWorker(serve.Config{Workers: 1, QueueCap: 512}),
		startClusterWorker(serve.Config{Workers: 1, QueueCap: 512}),
	}
	r, err := shard.New(shard.Config{
		Handles:        []shard.ShardHandle{workers[0].handle(), workers[1].handle()},
		HeartbeatEvery: 10 * time.Millisecond,
		RebalanceEvery: -1,
	})
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("join run skipped: %v", err))
		return
	}
	joiner := startClusterWorker(serve.Config{Workers: 1, QueueCap: 512})
	defer func() {
		r.Close()
		for _, w := range workers {
			w.stop()
		}
		joiner.stop()
	}()

	const tenants = 5000
	before := make([]int, tenants)
	for i := range before {
		before[i] = r.HomeShard(fmt.Sprintf("tenant-%d", i))
	}
	var ids []string
	sums := map[string]float64{}
	for i := 0; i < 20; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "scan", N: 1 << 12, Tenant: fmt.Sprintf("tenant-%d", i)})
		if err != nil {
			continue
		}
		ids = append(ids, j.ID())
		sums[j.ID()] = serve.ExpectedChecksum("scan", 1<<12)
	}
	if _, err := r.AddShard(joiner.handle()); err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("join failed: %v", err))
		return
	}
	moved := 0
	for i := range before {
		if r.HomeShard(fmt.Sprintf("tenant-%d", i)) != before[i] {
			moved++
		}
	}
	frac := float64(moved) / tenants
	done, bad := drainCluster(r, ids, sums, 30*time.Second)

	verdict := "PASS"
	if frac < 0.15 || frac > 0.5 || done != len(ids) || bad != 0 {
		verdict = "FAIL"
	}
	t := &report.Table{
		Measured: true,
		Title:    fmt.Sprintf("live ring growth 2 -> 3 workers, %d tenants, %d jobs in flight across the join", tenants, len(ids)),
		Headers:  []string{"metric", "value"},
	}
	t.AddRow("tenants remapped", fmt.Sprintf("%d", moved))
	t.AddRow("remap fraction", fmt.Sprintf("%.3f", frac))
	t.AddRow("ideal 1/(N+1)", fmt.Sprintf("%.3f", 1.0/3))
	t.AddRow("in-flight jobs done with intact checksum", fmt.Sprintf("%d of %d", done, len(ids)))
	t.AddRow("in-flight jobs disturbed", fmt.Sprintf("%d", bad))
	t.AddRow("join verdict", verdict)
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"growth mechanism: the ring keys virtual points by member identity, so adding a member only claims arcs from its own new points — existing members never trade tenants with each other, and jobs already placed stay where they are")
}
