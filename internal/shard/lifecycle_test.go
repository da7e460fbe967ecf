package shard

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pstlbench/internal/serve"
)

// TestSubmitLogsAbsoluteDeadlineBudget: a deadline given only as DeadlineAt
// is logged as the budget left at admission, so replay can restore it.
func TestSubmitLogsAbsoluteDeadlineBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog.jsonl")
	r, err := New(Config{Shards: 1, Serve: serve.Config{Workers: 1}, LogPath: path, RebalanceEvery: -1, HeartbeatEvery: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 10, DeadlineAt: time.Now().Add(5 * time.Second)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitJob(t, j)
	r.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record %q: %v", sc.Bytes(), err)
		}
		if rec.T != "submit" || rec.ID != j.ID() {
			continue
		}
		if rec.DeadlineMS < 4000 || rec.DeadlineMS > 5000 {
			t.Fatalf("submit record deadline_ms=%d, want the ~5000 ms budget left at admission", rec.DeadlineMS)
		}
		return
	}
	t.Fatalf("no submit record for %s", j.ID())
}

// TestDeadShardOverflowParksThenDrains: when a dead shard's jobs are more
// than the survivor can admit, the overflow parks in the backlog and
// Rebalance drains it; every job completes exactly once with its kernel's
// checksum.
func TestDeadShardOverflowParksThenDrains(t *testing.T) {
	r, err := New(Config{
		Shards:         2,
		Serve:          serve.Config{Workers: 1, QueueCap: 2, MaxConcurrent: 1},
		SpillThreshold: 2, // no admission spill: shard 0 takes its tenant's jobs
		RebalanceEvery: -1,
		HeartbeatEvery: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	type job struct {
		j      *Job
		kernel string
		n      int
	}
	var jobs []job
	submit := func(kernel string, n int, tenant string) *Job {
		j, err := r.Submit(serve.Spec{Kernel: kernel, N: n, Tenant: tenant})
		if err != nil {
			t.Fatalf("Submit %s/%d: %v", kernel, n, err)
		}
		jobs = append(jobs, job{j, kernel, n})
		return j
	}
	t0, t1 := tenantFor(t, r.ring, 0), tenantFor(t, r.ring, 1)
	// Shard 1 runs a blocker with an empty two-slot queue; shard 0 runs
	// one job and queues two more — three victims for two free slots.
	waitRunning(t, r, submit("sort", 1<<21, t1).ID())
	waitRunning(t, r, submit("sort", 1<<18, t0).ID())
	submit("reduce", 1<<12, t0)
	submit("reduce", 1<<12, t0)
	if got := r.Shard(0).Queued(); got != 2 {
		t.Fatalf("shard 0 queued=%d, want 2", got)
	}

	r.MarkDead(0)
	st := r.Stats()
	if st.Replaced != 3 || st.Backlog != 1 {
		t.Fatalf("after MarkDead: replaced=%d backlog=%d, want 3 and 1", st.Replaced, st.Backlog)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st = r.Stats(); st.Backlog > 0 || st.Completed < int64(len(jobs)); st = r.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", st)
		}
		r.Rebalance()
		time.Sleep(time.Millisecond)
	}
	for _, jb := range jobs {
		waitJob(t, jb.j)
		info, _ := r.Get(jb.j.ID())
		if want := serve.ExpectedChecksum(jb.kernel, jb.n); info.State != "done" || info.Checksum != want {
			t.Fatalf("job %s ended %s/%s checksum %v, want done with %v", jb.j.ID(), info.State, info.Reason, info.Checksum, want)
		}
	}
	if st := r.Stats(); st.Completed != int64(len(jobs)) || st.Canceled != 0 {
		t.Fatalf("completed=%d canceled=%d, want %d and 0", st.Completed, st.Canceled, len(jobs))
	}
}
