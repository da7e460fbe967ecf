package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pstlbench/internal/serve"
)

// TestKillReplayStress is the durability gauntlet, run under -race in CI:
// concurrent clients submit and cancel against a logged router, the
// router is killed mid-backlog (log severed first, no completion records
// written — exactly as SIGKILL), a second incarnation replays the log and
// drains, and the final log must show EXACTLY one completion per
// acknowledged job — nothing lost, nothing run twice — with every "done"
// checksum matching the kernel's deterministic expected value (the
// torn-checksum detector the serve-level stress tests established).
func TestKillReplayStress(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/replay stress is a long test")
	}
	path := filepath.Join(t.TempDir(), "joblog.jsonl")
	cfg := Config{
		Shards:         2,
		Serve:          serve.Config{Workers: 2, QueueCap: 64, MaxConcurrent: 2},
		LogPath:        path,
		RebalanceEvery: 5 * time.Millisecond,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	kernels := []string{"foreach", "reduce", "scan", "sort", "find"}
	var mu sync.Mutex
	acked := map[string]serve.Spec{} // every ID a client was told "accepted"
	canceled := map[string]bool{}    // IDs we asked to cancel (may still finish done)

	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) * 7919))
			for i := 0; i < 40; i++ {
				spec := serve.Spec{
					Kernel: kernels[rng.Intn(len(kernels))],
					N:      1 << (10 + rng.Intn(5)),
					Tenant: fmt.Sprintf("tenant-%d", rng.Intn(4)),
				}
				j, err := r.Submit(spec)
				if err != nil {
					// Saturated or killed: either way the client was NOT
					// acked, so the job must not appear in the log.
					continue
				}
				mu.Lock()
				acked[j.ID()] = spec
				mu.Unlock()
				if i%7 == 3 {
					if _, err := r.Cancel(j.ID()); err == nil {
						mu.Lock()
						canceled[j.ID()] = true
						mu.Unlock()
					}
				}
				if i%11 == 0 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}
		}(c)
	}

	// Kill mid-flight: clients racing the kill observe ErrClosed and stop.
	time.Sleep(15 * time.Millisecond)
	r.Kill()
	wg.Wait()

	mu.Lock()
	total := len(acked)
	mu.Unlock()
	if total == 0 {
		t.Fatal("no jobs were acknowledged before the kill; stress proves nothing")
	}

	// Incarnation two: replay and drain.
	r2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	st := r2.Stats()
	if st.Replayed+st.Recovered == 0 {
		t.Fatalf("replay found nothing (stats %+v) despite %d acked jobs", st, total)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st = r2.Stats()
		busy := st.Backlog
		for _, ss := range st.PerShard {
			busy += ss.Queued + ss.Running
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second incarnation never drained: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Every acked job must be terminal and queryable at the router.
	for id := range acked {
		info, ok := r2.Get(id)
		if !ok {
			t.Fatalf("acked job %s unknown after replay", id)
		}
		if info.State != "done" && info.State != "canceled" {
			t.Fatalf("acked job %s non-terminal after drain: %+v", id, info)
		}
	}
	r2.Close()

	// The ledger check: exactly one complete record per acked ID, every
	// "done" checksum equal to the kernel's deterministic value, and no
	// record for any job a client was never acked.
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	completes := map[string]int{}
	for _, rec := range recs {
		if rec.T == "submit" {
			if _, ok := acked[rec.ID]; !ok {
				t.Fatalf("log has submit for %s which no client was acked", rec.ID)
			}
		}
		if rec.T != "complete" {
			continue
		}
		completes[rec.ID]++
		if rec.State == "done" {
			spec, ok := acked[rec.ID]
			if !ok {
				t.Fatalf("complete record for unknown job %s", rec.ID)
			}
			if want := serve.ExpectedChecksum(spec.Kernel, spec.N); rec.Checksum != want {
				t.Fatalf("job %s: torn/wrong checksum %v, want %v", rec.ID, rec.Checksum, want)
			}
		}
	}
	for id := range acked {
		if n := completes[id]; n != 1 {
			t.Fatalf("job %s has %d complete records, want exactly 1 (lost or duplicated)", id, n)
		}
	}
	t.Logf("stress: %d acked (%d cancel requests), %d replayed + %d recovered by incarnation two, %d log records",
		total, len(canceled), st.Replayed, st.Recovered, len(recs))
}
