package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pstlbench/internal/serve"
)

// tenantFor finds a tenant name whose consistent-hash home is shard.
func tenantFor(t *testing.T, ring *Ring, shard int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if ring.Shard(name) == shard {
			return name
		}
	}
	t.Fatalf("no tenant hashes to shard %d", shard)
	return ""
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

// waitRunning polls until the job reports state "running".
func waitRunning(t *testing.T, r *Router, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, ok := r.Get(id)
		if ok && info.State == "running" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running (state %q)", id, info.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterCompletesJobsAcrossShards: the baseline contract — mixed
// kernels and tenants through a 4-shard router all complete with the
// deterministic checksum their kernel owes.
func TestRouterCompletesJobsAcrossShards(t *testing.T) {
	r, err := New(Config{
		Shards: 4,
		Serve:  serve.Config{Workers: 2, QueueCap: 64, MaxConcurrent: 2},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	kernels := []string{"foreach", "reduce", "scan", "sort", "find"}
	var jobs []*Job
	for i := 0; i < 20; i++ {
		spec := serve.Spec{
			Kernel: kernels[i%len(kernels)],
			N:      1 << 12,
			Tenant: fmt.Sprintf("tenant-%d", i%7),
		}
		j, err := r.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		waitJob(t, j)
		info, ok := r.Get(j.ID())
		if !ok {
			t.Fatalf("job %s vanished", j.ID())
		}
		if info.State != "done" {
			t.Fatalf("job %s: state %q reason %q, want done", j.ID(), info.State, info.Reason)
		}
		want := serve.ExpectedChecksum(kernels[i%len(kernels)], 1<<12)
		if info.Checksum != want {
			t.Fatalf("job %s: checksum %v, want %v", j.ID(), info.Checksum, want)
		}
		if info.Shard < 0 || info.Shard >= 4 {
			t.Fatalf("job %s: shard %d out of range", j.ID(), info.Shard)
		}
	}
	st := r.Stats()
	if st.Accepted != 20 || st.Completed != 20 || st.Rejected != 0 {
		t.Fatalf("stats accepted=%d completed=%d rejected=%d, want 20/20/0", st.Accepted, st.Completed, st.Rejected)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d entries, want 4", len(st.PerShard))
	}
	var sum int64
	for _, ss := range st.PerShard {
		sum += ss.Completed
	}
	if sum != 20 {
		t.Fatalf("per-shard completed sums to %d, want 20", sum)
	}
}

// TestPlacementFollowsRingWhenIdle: with no load, every job lands on its
// tenant's consistent-hash home and nothing spills.
func TestPlacementFollowsRingWhenIdle(t *testing.T) {
	r, err := New(Config{
		Shards:         4,
		Serve:          serve.Config{Workers: 1, QueueCap: 64, MaxConcurrent: 1},
		RebalanceEvery: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	for shard := 0; shard < 4; shard++ {
		tenant := tenantFor(t, r.ring, shard)
		j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, Tenant: tenant})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitJob(t, j)
		info, _ := r.Get(j.ID())
		if info.Shard != shard {
			t.Fatalf("tenant %q: placed on shard %d, home is %d", tenant, info.Shard, shard)
		}
	}
	if st := r.Stats(); st.Spills != 0 {
		t.Fatalf("idle router spilled %d jobs", st.Spills)
	}
}

// TestOverflowSpillsUnderSaturatedHome: once the home shard's Load
// crosses SpillThreshold, new jobs for the same tenant overflow to the
// least-loaded shard instead of queueing behind the hot spot.
func TestOverflowSpillsUnderSaturatedHome(t *testing.T) {
	r, err := New(Config{
		Shards:         2,
		Serve:          serve.Config{Workers: 1, QueueCap: 4, MaxConcurrent: 1},
		RebalanceEvery: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	home := 0
	tenant := tenantFor(t, r.ring, home)
	blocker, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22, Tenant: tenant})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitRunning(t, r, blocker.ID())

	// Three queued jobs bring home occupancy to 3/4 = SpillThreshold.
	for i := 0; i < 3; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, Tenant: tenant})
		if err != nil {
			t.Fatalf("Submit filler %d: %v", i, err)
		}
		info, _ := r.Get(j.ID())
		if info.Shard != home {
			t.Fatalf("filler %d spilled to shard %d before saturation", i, info.Shard)
		}
	}
	spilled, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, Tenant: tenant})
	if err != nil {
		t.Fatalf("Submit past threshold: %v", err)
	}
	info, _ := r.Get(spilled.ID())
	if info.Shard != 1 {
		t.Fatalf("saturated-home job landed on shard %d, want overflow to 1", info.Shard)
	}
	if st := r.Stats(); st.Spills != 1 {
		t.Fatalf("spills=%d, want 1", st.Spills)
	}
	waitJob(t, spilled) // completes on the idle shard while home is still blocked
}

// TestRebalanceMigratesQueuedJobs: a saturated shard next to an idle one
// gets its queued jobs withdrawn and resubmitted there; migrated jobs are
// not billed as canceled and still complete with valid checksums.
func TestRebalanceMigratesQueuedJobs(t *testing.T) {
	r, err := New(Config{
		Shards:         2,
		Serve:          serve.Config{Workers: 1, QueueCap: 8, MaxConcurrent: 1},
		SpillThreshold: 2, // disable admission spill; force everything home
		RebalanceEvery: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	tenant := tenantFor(t, r.ring, 0)
	blocker, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22, Tenant: tenant})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitRunning(t, r, blocker.ID())

	var queued []*Job
	for i := 0; i < 8; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 12, Tenant: tenant})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if got := r.Shard(0).Queued(); got != 8 {
		t.Fatalf("home shard queued=%d, want 8", got)
	}

	r.Rebalance()

	st := r.Stats()
	if st.Migrations != 4 {
		t.Fatalf("migrations=%d, want 4", st.Migrations)
	}
	if st.PerShard[1].Accepted != 4 {
		t.Fatalf("cold shard accepted=%d, want the 4 migrated jobs", st.PerShard[1].Accepted)
	}
	if st.PerShard[0].Withdrawn != 4 {
		t.Fatalf("hot shard withdrawn=%d, want 4", st.PerShard[0].Withdrawn)
	}

	for _, j := range queued {
		waitJob(t, j)
		info, _ := r.Get(j.ID())
		if info.State != "done" {
			t.Fatalf("job %s: state %q reason %q after migration, want done", j.ID(), info.State, info.Reason)
		}
		if want := serve.ExpectedChecksum("reduce", 1<<12); info.Checksum != want {
			t.Fatalf("job %s: checksum %v, want %v", j.ID(), info.Checksum, want)
		}
	}
	if st := r.Stats(); st.Canceled != 0 {
		t.Fatalf("router billed %d cancellations for migrated jobs", st.Canceled)
	}
	waitJob(t, blocker)
}

// TestReplayRecoversTerminalCanceledAndPending builds a log by hand with
// the three replay classes: a completed job (recovered, never re-run), a
// canceled-but-not-completed job (finalized as canceled now), and a
// pending job (resubmitted and run to completion). ID sequencing must
// also survive: the first post-replay submission continues the series.
func TestReplayRecoversTerminalCanceledAndPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog.jsonl")
	doneSum := serve.ExpectedChecksum("reduce", 1<<10)
	seed := []Record{
		{T: "submit", ID: "job-1", Seq: 1, Kernel: "reduce", N: 1 << 10, Tenant: "a"},
		{T: "complete", ID: "job-1", State: "done", Checksum: doneSum},
		{T: "submit", ID: "job-2", Seq: 2, Kernel: "scan", N: 1 << 10, Tenant: "b"},
		{T: "cancel", ID: "job-2"},
		{T: "submit", ID: "job-3", Seq: 3, Kernel: "reduce", N: 1 << 10, Tenant: "c"},
	}
	var data []byte
	for _, rec := range seed {
		b, _ := json.Marshal(rec)
		data = append(append(data, b...), '\n')
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	r, err := New(Config{
		Shards:  2,
		Serve:   serve.Config{Workers: 1, QueueCap: 16, MaxConcurrent: 1},
		LogPath: path,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	st := r.Stats()
	if st.Recovered != 2 || st.Replayed != 1 {
		t.Fatalf("recovered=%d replayed=%d, want 2/1", st.Recovered, st.Replayed)
	}
	if info, ok := r.Get("job-1"); !ok || info.State != "done" || info.Checksum != doneSum {
		t.Fatalf("job-1 recovered as %+v, want done with checksum %v", info, doneSum)
	}
	info, ok := r.Get("job-2")
	if !ok || info.State != "canceled" {
		t.Fatalf("job-2 recovered as %+v, want canceled", info)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, ok = r.Get("job-3")
		if ok && info.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job-3 never completed after replay (now %+v)", info)
		}
		time.Sleep(time.Millisecond)
	}
	if info.Checksum != doneSum {
		t.Fatalf("job-3 checksum %v, want %v", info.Checksum, doneSum)
	}

	// ID sequence continues after the replayed range.
	j4, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, Tenant: "d"})
	if err != nil {
		t.Fatalf("Submit after replay: %v", err)
	}
	if j4.ID() != "job-4" {
		t.Fatalf("post-replay ID %q, want job-4", j4.ID())
	}
	waitJob(t, j4)
	r.Close()

	// The log now carries exactly one complete record per ID.
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	completes := map[string]int{}
	for _, rec := range recs {
		if rec.T == "complete" {
			completes[rec.ID]++
		}
	}
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		if completes[id] != 1 {
			t.Fatalf("id %s has %d complete records, want exactly 1 (%v)", id, completes[id], completes)
		}
	}
}

// TestGracefulCloseLeavesBacklogReplayable: Close cancels queued AND
// running jobs with reason "shutdown" (serve's cooperative cancel) but
// writes no completion record for them, so a restarted router resumes
// every unfinished job — graceful stop and crash converge on the same
// replay path.
func TestGracefulCloseLeavesBacklogReplayable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog.jsonl")
	r, err := New(Config{
		Shards:  1,
		Serve:   serve.Config{Workers: 1, QueueCap: 16, MaxConcurrent: 1},
		LogPath: path,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	blocker, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22, Tenant: "a"})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitRunning(t, r, blocker.ID())
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, Tenant: "b"})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, j.ID())
	}
	r.Close() // running blocker and the 5 queued all die as "shutdown"

	r2, err := New(Config{
		Shards:  1,
		Serve:   serve.Config{Workers: 1, QueueCap: 16, MaxConcurrent: 1},
		LogPath: path,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	st := r2.Stats()
	if st.Replayed != 6 || st.Recovered != 0 {
		t.Fatalf("replayed=%d recovered=%d, want all 6 unfinished jobs resumed", st.Replayed, st.Recovered)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range append(ids, blocker.ID()) {
		for {
			info, ok := r2.Get(id)
			if ok && info.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("resumed job %s never completed (%+v)", id, info)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReplayOverflowParksInBacklog: more pending records than the shards
// can admit at once park in the router backlog and drain through the
// rebalancer as capacity frees — no replayed job is dropped.
func TestReplayOverflowParksInBacklog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog.jsonl")
	var data []byte
	const jobs = 10
	for i := 1; i <= jobs; i++ {
		b, _ := json.Marshal(Record{
			T: "submit", ID: fmt.Sprintf("job-%d", i), Seq: int64(i),
			Kernel: "reduce", N: 1 << 10, Tenant: fmt.Sprintf("t%d", i%3),
		})
		data = append(append(data, b...), '\n')
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	r, err := New(Config{
		Shards:         1,
		Serve:          serve.Config{Workers: 1, QueueCap: 2, MaxConcurrent: 1},
		LogPath:        path,
		RebalanceEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	if st := r.Stats(); st.Replayed != jobs {
		t.Fatalf("replayed=%d, want %d", st.Replayed, jobs)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := r.Stats()
		if st.Completed == jobs && st.Backlog == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("job-%d", i)
		info, ok := r.Get(id)
		if !ok || info.State != "done" {
			t.Fatalf("replayed %s: %+v, want done", id, info)
		}
	}
}

// TestRouterCancel covers both cancel paths: a queued shard-held job and
// idempotent re-cancel of a terminal one.
func TestRouterCancel(t *testing.T) {
	r, err := New(Config{
		Shards:         1,
		Serve:          serve.Config{Workers: 1, QueueCap: 8, MaxConcurrent: 1},
		RebalanceEvery: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	blocker, _ := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 22, Tenant: "a"})
	waitRunning(t, r, blocker.ID())
	victim, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, Tenant: "b"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info, err := r.Cancel(victim.ID())
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if info.State != "canceled" {
		t.Fatalf("canceled job state %q", info.State)
	}
	waitJob(t, victim)
	if info, err = r.Cancel(victim.ID()); err != nil || info.State != "canceled" {
		t.Fatalf("re-cancel: info=%+v err=%v", info, err)
	}
	if _, err := r.Cancel("job-999"); err == nil {
		t.Fatal("Cancel of unknown id succeeded")
	}
}

// TestProbeLocalShard runs one heartbeat against an in-process shard. Its
// Ping never fails, so the probe keeps the heartbeat going and the shard
// healthy. (The heartbeat goroutine pings local shards only when a test
// outlives its 250 ms tick, so this is the one deterministic run.)
func TestProbeLocalShard(t *testing.T) {
	r, err := New(Config{Shards: 1, Serve: serve.Config{Workers: 1}, RebalanceEvery: -1, HeartbeatEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.probe(0) {
		t.Fatal("probe of a local shard ended its heartbeat")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if hs := r.health[0]; hs.state != Healthy || hs.fails != 0 {
		t.Fatalf("after one probe: state %v, %d fails", hs.state, hs.fails)
	}
}
