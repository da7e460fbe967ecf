package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// TestJoblogFsyncInstrumentation pins the group-commit accounting: with
// every=2 and a long interval, four appends produce exactly two
// barriers, each committing two records — visible in the histograms'
// counts, sums, and bucket placement.
func TestJoblogFsyncInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	fsyncH := reg.Histogram("fsync_seconds", "", obs.LatencyBuckets)
	commitH := reg.Histogram("commit_records", "", obs.SizeBuckets)

	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := OpenLog(path, 2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	l.Instrument(fsyncH, commitH)
	for i := 0; i < 4; i++ {
		if err := l.Append(Record{T: "submit", ID: fmt.Sprintf("job-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncH.Count(); got != 2 {
		t.Fatalf("fsync barriers = %d, want 2 (4 appends / every=2)", got)
	}
	if got := commitH.Count(); got != 2 {
		t.Fatalf("commit observations = %d, want 2", got)
	}
	if got := commitH.Sum(); got != 4 {
		t.Fatalf("committed records = %v, want 4", got)
	}
	// Bucket placement: both commits carried 2 records, so the le=2 bucket
	// (SizeBuckets index 1) holds both.
	snap := commitH.Snapshot()
	if snap.Bounds[1] != 2 || snap.Counts[1] != 2 {
		t.Fatalf("commit-size buckets = %v over %v, want 2 observations at le=2", snap.Counts, snap.Bounds)
	}
	if fsyncH.Sum() <= 0 {
		t.Fatal("fsync latency sum not positive")
	}
	// Close syncs with nothing pending: a barrier happens (fsync observed)
	// but no empty group-commit is recorded.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncH.Count(); got != 3 {
		t.Fatalf("fsync barriers after close = %d, want 3", got)
	}
	if got := commitH.Count(); got != 2 {
		t.Fatalf("commit observations after empty close = %d, want 2 (no 0-size commits)", got)
	}
}

// TestReplayPreservesSpanPhases is the kill-and-replay acceptance check at
// the span layer: a job resubmitted from the log keeps its pre-crash
// admission stamp and carries the replayed phase, on a span ring created
// only after the restart.
func TestReplayPreservesSpanPhases(t *testing.T) {
	cfg := Config{
		Shards:  2,
		Serve:   serve.Config{Workers: 1, QueueCap: 64, MaxConcurrent: 1},
		LogPath: filepath.Join(t.TempDir(), "log.jsonl"),
		Spans:   obs.NewSpanLog(256),
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Blockers pin the run slots so the jobs behind them die queued.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(serve.Spec{Kernel: "sort", N: 1 << 20, Tenant: fmt.Sprintf("blk-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	ids := map[string]bool{}
	for i := 0; i < 10; i++ {
		j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 12, Tenant: fmt.Sprintf("tenant-%d", i%3)})
		if err != nil {
			t.Fatal(err)
		}
		ids[j.ID()] = true
	}
	r.Kill()
	killNS := time.Now().UnixNano()

	cfg.Spans = obs.NewSpanLog(256)
	r2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Stats().Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := r2.Stats()
		busy := st.Backlog
		for _, ss := range st.PerShard {
			busy += ss.Queued + ss.Running
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replayed backlog did not drain")
		}
		time.Sleep(time.Millisecond)
	}

	checked := 0
	for _, sp := range cfg.Spans.Spans() {
		if !ids[sp.ID] {
			continue
		}
		checked++
		if sp.At(obs.PhaseReplayed) == 0 {
			t.Errorf("span %s missing the replayed phase", sp.ID)
		}
		adm := sp.At(obs.PhaseAdmitted)
		if adm == 0 || adm >= killNS {
			t.Errorf("span %s admitted at %d, want a pre-kill stamp", sp.ID, adm)
		}
		if _, _, ok := sp.Terminal(); !ok {
			t.Errorf("span %s never reached a terminal phase", sp.ID)
		}
	}
	if checked != len(ids) {
		t.Fatalf("checked %d replayed spans, want %d", checked, len(ids))
	}
}

// TestReplayIgnoresRetiredBatchedPhase: a job-log record written by an
// older binary may carry a "batched" stamp in its phase map, a phase this
// build no longer has. Replay must still resume the job with its other
// pre-crash stamps, and the unknown name is dropped from its span.
func TestReplayIgnoresRetiredBatchedPhase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	adm := time.Now().Add(-time.Minute).UnixNano()
	rec := Record{T: "submit", ID: "job-1", Seq: 1, Kernel: "reduce", N: 1 << 10, Tenant: "a",
		Phases: map[string]int64{"admitted": adm, "enqueued": adm + 1e3, "dequeued": adm + 2e3, "batched": adm + 3e3}}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Shards:  2,
		Serve:   serve.Config{Workers: 1, QueueCap: 16, MaxConcurrent: 1},
		LogPath: path,
		Spans:   obs.NewSpanLog(16),
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Replayed != 1 {
		t.Fatalf("replayed %d jobs, want 1", st.Replayed)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, ok := r.Get("job-1")
		if ok && info.State == "done" {
			if want := serve.ExpectedChecksum("reduce", 1<<10); info.Checksum != want {
				t.Fatalf("checksum %v, want %v", info.Checksum, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never completed (now %+v)", info)
		}
		time.Sleep(time.Millisecond)
	}
	spans := cfg.Spans.Spans()
	if len(spans) != 1 || spans[0].ID != "job-1" {
		t.Fatalf("span log holds %d spans, want job-1 alone", len(spans))
	}
	phases := spans[0].Phases()
	if _, ok := phases["batched"]; ok {
		t.Errorf("replayed span kept the unknown phase: %v", phases)
	}
	if phases["admitted"] != adm || phases["replayed"] == 0 || phases["completed"] == 0 {
		t.Errorf("replayed span phases %v, want the pre-crash admission, replayed and completed", phases)
	}
}

// TestRouterMetricsFamilies: the tier-level registry carries per-shard
// labeled series plus the router families, rendered as valid text.
func TestRouterMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := New(Config{
		Shards:  2,
		Serve:   serve.Config{Workers: 1, QueueCap: 16},
		Metrics: reg,
		Spans:   obs.NewSpanLog(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j, err := r.Submit(serve.Spec{Kernel: "reduce", N: 1 << 12, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pstld_shards 2",
		`pstld_shard_load{shard="0"}`,
		`pstld_shard_load{shard="1"}`,
		`pstld_queue_depth{shard="0"}`,
		"pstld_spills_total",
		"pstld_migrations_total",
		"pstld_backlog",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
	// The completed job's per-tenant series carries both labels.
	if !strings.Contains(out, `tenant="acme"`) {
		t.Error("per-tenant series missing from the shared registry")
	}
}
