package cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
)

// testWorker is one in-process "worker process": a real serve.Server
// behind a real HTTP listener, reachable only through the transport.
type testWorker struct {
	s  *serve.Server
	ts *httptest.Server
}

func startWorker(t *testing.T, cfg serve.Config) *testWorker {
	t.Helper()
	s := serve.New(cfg)
	w := &testWorker{s: s, ts: httptest.NewServer(s.Handler())}
	t.Cleanup(func() {
		w.ts.Close()
		s.Close()
	})
	return w
}

// kill severs the worker's listener abruptly — the in-test stand-in for
// SIGKILL: every future RPC fails, in-flight connections break.
func (w *testWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
}

func (w *testWorker) handle(pollEvery time.Duration) *RemoteShard {
	return NewRemoteShard(RemoteConfig{
		Client: ClientConfig{
			BaseURL:     w.ts.URL,
			Timeout:     time.Second,
			Retries:     2,
			BackoffBase: time.Millisecond,
		},
		PollEvery: pollEvery,
	})
}

func newClusterRouter(t *testing.T, workers []*testWorker, cfg shard.Config) *shard.Router {
	t.Helper()
	for _, w := range workers {
		cfg.Handles = append(cfg.Handles, w.handle(5*time.Millisecond))
	}
	r, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// waitCompleted waits for the router's own completion accounting to
// reach n. Get reflects the worker's live state a poll cycle before the
// router's watcher records the terminal, so Stats assertions need this.
func waitCompleted(t *testing.T, r *shard.Router, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Completed < n {
		if time.Now().After(deadline) {
			t.Fatalf("router completed=%d, want %d", r.Stats().Completed, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, r *shard.Router, ids []string) map[string]shard.JobInfo {
	t.Helper()
	out := make(map[string]shard.JobInfo, len(ids))
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			info, ok := r.Get(id)
			if ok && (info.State == "done" || info.State == "canceled") {
				out[id] = info
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck (state=%q ok=%v)", id, info.State, ok)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return out
}

// TestRemoteRouterEndToEnd: a router whose shards are only reachable over
// HTTP behaves like the in-process tier — every job completes exactly
// once with the right checksum, on the shard the ring chose.
func TestRemoteRouterEndToEnd(t *testing.T) {
	workers := []*testWorker{
		startWorker(t, serve.Config{Workers: 2, QueueCap: 128, MaxConcurrent: 2}),
		startWorker(t, serve.Config{Workers: 2, QueueCap: 128, MaxConcurrent: 2}),
	}
	r := newClusterRouter(t, workers, shard.Config{
		HeartbeatEvery: 10 * time.Millisecond,
		RebalanceEvery: -1,
	})
	var ids []string
	for i := 0; i < 24; i++ {
		j, err := r.Submit(serve.Spec{
			Kernel: "reduce", N: 8192,
			Tenant: fmt.Sprintf("tenant-%d", i%6),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID())
	}
	want := serve.ExpectedChecksum("reduce", 8192)
	for id, info := range waitTerminal(t, r, ids) {
		if info.State != "done" || info.Checksum != want {
			t.Errorf("%s: state=%s checksum=%v, want done/%v", id, info.State, info.Checksum, want)
		}
	}
	waitCompleted(t, r, 24)
	st := r.Stats()
	if st.Completed != 24 || st.HealthyShards != 2 {
		t.Fatalf("completed=%d healthy=%d, want 24 and 2", st.Completed, st.HealthyShards)
	}
	// Both workers actually served traffic (the ring spread 6 tenants).
	for i, w := range workers {
		if w.s.Stats().Accepted == 0 {
			t.Errorf("worker %d never saw a job", i)
		}
	}
}

// TestDeadWorkerFailover pins tentpole (2)+(3): a killed worker walks
// healthy -> suspect -> dead, its acknowledged backlog re-places onto the
// survivor, and every acked job still reaches exactly one terminal state
// with the right checksum.
func TestDeadWorkerFailover(t *testing.T) {
	workers := []*testWorker{
		startWorker(t, serve.Config{Workers: 1, QueueCap: 256, MaxConcurrent: 1}),
		startWorker(t, serve.Config{Workers: 1, QueueCap: 256, MaxConcurrent: 1}),
	}
	r := newClusterRouter(t, workers, shard.Config{
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   1,
		DeadAfter:      3,
		RebalanceEvery: 10 * time.Millisecond,
	})
	// A backlog of real work: sorts slow enough that the kill lands mid-
	// backlog, spread over enough tenants to hit both shards.
	var ids []string
	for i := 0; i < 40; i++ {
		j, err := r.Submit(serve.Spec{
			Kernel: "sort", N: 1 << 15,
			Tenant: fmt.Sprintf("tenant-%d", i%8),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID())
	}
	workers[0].kill()
	// The health plane must declare the shard dead on its own.
	deadline := time.Now().Add(10 * time.Second)
	for r.HealthOf(0) != shard.Dead {
		if time.Now().After(deadline) {
			t.Fatal("killed worker never declared dead")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := serve.ExpectedChecksum("sort", 1<<15)
	done := 0
	for id, info := range waitTerminal(t, r, ids) {
		if info.State != "done" {
			t.Errorf("%s: state=%s reason=%s, want done", id, info.State, info.Reason)
			continue
		}
		if info.Checksum != want {
			t.Errorf("%s: checksum %v, want %v", id, info.Checksum, want)
		}
		done++
	}
	if done != len(ids) {
		t.Fatalf("%d/%d acked jobs completed", done, len(ids))
	}
	waitCompleted(t, r, int64(len(ids)))
	st := r.Stats()
	if st.Deaths != 1 {
		t.Fatalf("deaths=%d, want 1", st.Deaths)
	}
	if st.Completed != int64(len(ids)) {
		t.Fatalf("completed=%d, want %d (exactly once)", st.Completed, len(ids))
	}
	if st.PerShard[0].Health != "dead" || st.PerShard[1].Health != "healthy" {
		t.Fatalf("health states: %s/%s", st.PerShard[0].Health, st.PerShard[1].Health)
	}
}

// TestLiveJoinRemap pins tentpole (4): adding a worker under live traffic
// moves roughly 1/(N+1) of tenants — and nothing in flight is disturbed.
func TestLiveJoinRemap(t *testing.T) {
	workers := []*testWorker{
		startWorker(t, serve.Config{Workers: 1, QueueCap: 512}),
		startWorker(t, serve.Config{Workers: 1, QueueCap: 512}),
	}
	r := newClusterRouter(t, workers, shard.Config{
		HeartbeatEvery: 10 * time.Millisecond,
		RebalanceEvery: -1,
	})
	const tenants = 2000
	before := make([]int, tenants)
	for i := range before {
		before[i] = r.HomeShard(fmt.Sprintf("tenant-%d", i))
	}
	// Traffic in flight across the join.
	var ids []string
	for i := 0; i < 30; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "scan", N: 4096, Tenant: fmt.Sprintf("tenant-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	joiner := startWorker(t, serve.Config{Workers: 1, QueueCap: 512})
	idx, err := r.AddShard(joiner.handle(5 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("joiner got index %d, want 2", idx)
	}
	moved := 0
	for i := range before {
		if r.HomeShard(fmt.Sprintf("tenant-%d", i)) != before[i] {
			moved++
		}
	}
	frac := float64(moved) / tenants
	// Ideal is 1/3; TestRingStability's tolerance band scaled here.
	if frac > 0.5 || frac < 0.15 {
		t.Fatalf("join moved %.1f%% of tenants, want ~33%%", 100*frac)
	}
	want := serve.ExpectedChecksum("scan", 4096)
	for id, info := range waitTerminal(t, r, ids) {
		if info.State != "done" || info.Checksum != want {
			t.Errorf("%s: state=%s, want done", id, info.State)
		}
	}
	// New tenants land on the joiner too.
	var joinerHit bool
	for i := 0; i < 60 && !joinerHit; i++ {
		tenant := fmt.Sprintf("fresh-%d", i)
		if r.HomeShard(tenant) == idx {
			j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 2048, Tenant: tenant})
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, r, []string{j.ID()})
			joinerHit = joiner.s.Stats().Accepted > 0
		}
	}
	if !joinerHit {
		t.Fatal("no fresh tenant ever landed on the joined shard")
	}
}

// TestWorkerRestartLosesJobsGracefully: a worker that restarts (same URL,
// empty state) answers polls with "missing" — the router must re-place
// those jobs, not wedge them.
func TestWorkerRestartLosesJobsGracefully(t *testing.T) {
	// One worker that will "restart": we simulate by a second serve.Server
	// taking over the same handle after the first dies.
	w0 := startWorker(t, serve.Config{Workers: 1, QueueCap: 64, MaxConcurrent: 1})
	w1 := startWorker(t, serve.Config{Workers: 1, QueueCap: 64, MaxConcurrent: 1})
	r := newClusterRouter(t, []*testWorker{w0, w1}, shard.Config{
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   1,
		DeadAfter:      3,
		RebalanceEvery: 10 * time.Millisecond,
	})
	var ids []string
	for i := 0; i < 20; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "foreach", N: 1 << 14, Tenant: fmt.Sprintf("t-%d", i%5)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	w0.kill()
	want := serve.ExpectedChecksum("foreach", 1<<14)
	for id, info := range waitTerminal(t, r, ids) {
		if info.State != "done" || info.Checksum != want {
			t.Errorf("%s: state=%s reason=%s", id, info.State, info.Reason)
		}
	}
}

// TestRebalanceMigratesOffRemoteWorker: a remote worker whose queue is
// full next to an idle one gets queued jobs withdrawn over POST /withdraw
// and resubmitted on the idle worker, and every job still ends done
// exactly once with the right checksum.
func TestRebalanceMigratesOffRemoteWorker(t *testing.T) {
	cfg := serve.Config{Workers: 1, QueueCap: 8, MaxConcurrent: 1}
	workers := []*testWorker{startWorker(t, cfg), startWorker(t, cfg)}
	handles := []*RemoteShard{workers[0].handle(5 * time.Millisecond), workers[1].handle(5 * time.Millisecond)}
	r, err := shard.New(shard.Config{
		Handles:        []shard.ShardHandle{handles[0], handles[1]},
		HeartbeatEvery: 5 * time.Millisecond,
		SpillThreshold: 2, // no admission spill: everything queues at home
		RebalanceEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	const tenant = "hot"
	blocker, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22, Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	hot := r.HomeShard(tenant)
	cold := 1 - hot
	deadline := time.Now().Add(10 * time.Second)
	for workers[hot].s.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	ids := []string{blocker.ID()}
	for i := 0; i < 8; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 12, Tenant: tenant})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID())
	}
	// The placement signals are heartbeat snapshots: wait until they show
	// the full hot queue and the cold queue's capacity.
	for handles[hot].Queued() != 8 || handles[cold].QueueCap() != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never showed the backlog: hot queued=%d, cold cap=%d",
				handles[hot].Queued(), handles[cold].QueueCap())
		}
		time.Sleep(time.Millisecond)
	}
	r.Rebalance()
	if got := r.Stats().Migrations; got != 4 {
		t.Fatalf("migrations=%d, want 4", got)
	}
	if got := workers[hot].s.Stats().Withdrawn; got != 4 {
		t.Fatalf("hot worker withdrew %d jobs, want 4", got)
	}

	for id, info := range waitTerminal(t, r, ids) {
		want := serve.ExpectedChecksum("reduce", 1<<12)
		if id == blocker.ID() {
			want = serve.ExpectedChecksum("sort", 1<<22)
		}
		if info.State != "done" || info.Checksum != want {
			t.Errorf("%s: state=%s reason=%s checksum=%v, want done/%v", id, info.State, info.Reason, info.Checksum, want)
		}
	}
	waitCompleted(t, r, int64(len(ids)))
	if got := r.Stats().Completed; got != int64(len(ids)) {
		t.Errorf("router completed %d jobs, want %d", got, len(ids))
	}
	if got := workers[cold].s.Stats().Completed; got != 4 {
		t.Errorf("cold worker completed %d jobs, want the 4 migrated ones", got)
	}
	if got := workers[hot].s.Stats().Completed + workers[cold].s.Stats().Completed; got != int64(len(ids)) {
		t.Errorf("workers completed %d jobs in total, want %d (each exactly once)", got, len(ids))
	}
}
