package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pstlbench/internal/cluster"
	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
)

// svcLayers is the traced svc run. The benchmark times each HTTP call it
// makes and reads what pstld already exports — /spans phase stamps,
// /stats counters, the /metrics fsync histogram — plus standalone probes
// of the job log and (svc-remote) the cluster RPC client.
func svcLayers(e *env, name string, procs []*proc, c *jobClient, seed uint64, dur time.Duration, r *result) error {
	expect := svcOracle()
	// The first quarter runs exactly as the untraced run does; its median
	// is the baseline of the tracing overhead.
	base := runLoad(c, e.facts.nproc, seed, svcWarm, dur/4, expect, r)
	ld := runLoad(c, e.facts.nproc, seed+1, 0, dur*3/4, expect, r)
	if len(base.jobs) == 0 || len(ld.jobs) == 0 {
		return fmt.Errorf("no job completed correctly")
	}
	L := r.layers
	var post, get samples
	polls := 0
	for _, j := range ld.jobs {
		post.add(j.postRTT)
		for _, g := range j.getRTTs {
			get.add(g)
		}
		polls += j.polls
	}
	L.set("http.submit_rtt_ms", post.median()*1e3)
	L.set("http.get_rtt_ms", get.median()*1e3)
	L.set("http.polls_per_job", float64(polls)/float64(len(ld.jobs)))
	L.set("serve.rejected_frac", float64(ld.rejected)/float64(ld.attempts))
	L.set("trace.overhead_frac", ld.lat.median()/base.lat.median()-1)

	// Spans live where the job ran: on the router for in-process shards,
	// on each worker for remote ones (same job IDs: the router's).
	remote := len(procs) > 1
	spanSrc := procs[:1]
	if remote {
		spanSrc = procs[1:]
	}
	spans, err := fetchSpans(spanSrc)
	if err != nil {
		return err
	}
	var queue, first, execute, lag samples
	for _, j := range ld.jobs {
		sp, ok := spans[j.id]
		if !ok {
			continue
		}
		ph := sp.Phases
		queue = append(queue, nsDiff(ph["enqueued"], ph["started"]))
		if fc := ph["first-chunk"]; fc != 0 {
			first = append(first, nsDiff(ph["started"], fc))
		}
		execute = append(execute, nsDiff(ph["started"], ph["completed"]))
		if remote && !j.lastGetStart.IsZero() {
			// The router's terminal state has no stamp of its own; the GET
			// that first saw it was handled about mid-way through its RTT.
			seen := j.lastGetStart.Add(j.lastGetEnd.Sub(j.lastGetStart) / 2)
			lag = append(lag, nsDiff(ph["completed"], seen.UnixNano()))
		}
	}
	if len(queue) == 0 {
		return fmt.Errorf("no span matched a measured job")
	}
	L.set("serve.queue_wait_ms", queue.median()*1e3)
	L.set("serve.start_to_first_chunk_us", first.median()*1e6)
	L.set("serve.execute_ms", execute.median()*1e3)
	fmt.Printf("# %s spans matched %d/%d jobs; first-chunk stamped on %d (pools of %d worker(s) run kernels sequentially)\n",
		name, len(queue), len(ld.jobs), len(first), e.facts.svcWorkers)

	var st shard.Stats
	if err := c.getJSON("/stats", &st); err != nil {
		return err
	}
	L.set("shard.spills_per_job", float64(st.Spills)/float64(max(1, st.Accepted)))
	L.set("shard.migrations_per_job", float64(st.Migrations)/float64(max(1, st.Accepted)))
	fsyncMS, err := pstldFsyncMS(c)
	if err != nil {
		return err
	}
	L.set("shard.pstld_fsync_ms", fsyncMS)
	appendUS, syncMS, err := joblogProbe(e, name)
	if err != nil {
		return err
	}
	L.set("shard.joblog_append_us", appendUS)
	L.set("shard.joblog_fsync_ms", syncMS)
	fmt.Printf("# %s joblog fsync: standalone %.4g ms, pstld_joblog_fsync_seconds mean %.4g ms\n", name, syncMS, fsyncMS)

	if remote {
		rpc, err := rpcSubmitProbe(procs[1].url, 40)
		if err != nil {
			return err
		}
		L.set("cluster.rpc_submit_ms", rpc*1e3)
		L.set("cluster.completion_lag_ms", lag.median()*1e3)
		fmt.Printf("# %s completion lag %s; explains %.0f%% of job p50 %.4g ms\n",
			name, lag.summary(1e3, "ms"), 100*lag.median()/ld.lat.median(), ld.lat.median()*1e3)
		return nil
	}
	return budget(c, procs[0], r)
}

// nsDiff is to-from in seconds.
func nsDiff(from, to int64) float64 { return float64(to-from) / 1e9 }

// fetchSpans reads /spans from each process, keyed by job ID.
func fetchSpans(procs []*proc) (map[string]obs.SpanInfo, error) {
	out := map[string]obs.SpanInfo{}
	for _, p := range procs {
		var spans []obs.SpanInfo
		if err := newJobClient(p.url, 1).getJSON("/spans", &spans); err != nil {
			return nil, err
		}
		for _, s := range spans {
			out[s.ID] = s
		}
	}
	return out, nil
}

// pstldFsyncMS is the mean of pstld_joblog_fsync_seconds from /metrics.
func pstldFsyncMS(c *jobClient) (float64, error) {
	status, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if status != 200 {
		return 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	var sum, count float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "pstld_joblog_fsync_seconds_sum":
			sum = v
		case "pstld_joblog_fsync_seconds_count":
			count = v
		}
	}
	if count == 0 {
		return 0, nil
	}
	return sum / count * 1e3, nil
}

// joblogProbe appends 1024 submit records to a standalone shard.Log in the
// run's temp dir with the router's group-commit defaults (fsync every 32nd
// record) and returns the median plain append (µs) and the median append
// that carried the fsync (ms).
func joblogProbe(e *env, name string) (appendUS, fsyncMS float64, err error) {
	l, _, err := shard.OpenLog(filepath.Join(e.tmp, name+"-probe.jsonl"), 0, 0)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	var plain, synced samples
	for i := 1; i <= 1024; i++ {
		rec := shard.Record{T: "submit", ID: fmt.Sprintf("job-%d", i), Seq: int64(i),
			Kernel: "reduce", N: svcJobN, Tenant: "a",
			Phases: map[string]int64{"admitted": time.Now().UnixNano()}}
		t0 := time.Now()
		if err := l.Append(rec); err != nil {
			return 0, 0, err
		}
		if i%32 == 0 {
			synced.add(time.Since(t0))
		} else {
			plain.add(time.Since(t0))
		}
	}
	return plain.median() * 1e6, synced.median() * 1e3, nil
}

// rpcSubmitProbe times k cluster.Client.Submit calls of reduce jobs on a
// worker, letting each job finish before the next so the worker is idle.
func rpcSubmitProbe(workerURL string, k int) (float64, error) {
	cl := cluster.NewClient(cluster.ClientConfig{BaseURL: workerURL})
	var s samples
	for i := 0; i < k; i++ {
		spec := serve.Spec{ID: fmt.Sprintf("rpc-probe-%d", i), Kernel: "reduce", N: svcJobN, Tenant: "probe"}
		t0 := time.Now()
		if _, err := cl.Submit(spec); err != nil {
			return 0, err
		}
		s.add(time.Since(t0))
		for {
			info, found, err := cl.Get(spec.ID)
			if err != nil {
				return 0, err
			}
			if found && (info.State == "done" || info.State == "canceled") {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return s.median(), nil
}
