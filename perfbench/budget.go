package main

import (
	"fmt"
	"time"
)

// budgetJobs is the number of unloaded jobs the latency budget is built on.
const budgetJobs = 40

// budgetRows are the layers one svc-local job crosses, in path order. Per
// job the rows tile [POST start, end of the GET that saw it terminal]:
//
//	http.request_in   POST start -> router admission stamp
//	shard.placement   admission -> enqueued on a shard (ring, spill, submit)
//	serve.queue_wait  enqueued -> started (WFQ, concurrency slot)
//	native.dispatch   started -> first chunk (0 when the pool runs it inline)
//	core.execute      first chunk (or start) -> completed
//	http.poll_wait    completed -> start of the GET that saw it terminal
//	http.get_reply    that GET's remaining time
var budgetRows = []string{"http.request_in", "shard.placement", "serve.queue_wait",
	"native.dispatch", "core.execute", "http.poll_wait", "http.get_reply"}

// budget runs unloaded reduce jobs on svc-local one at a time and prints
// each layer's median self time beside the median end-to-end time. The
// medians of the rows need not add up to the median of the sums: what is
// left is budget.remainder_ms, reported as its own row.
func budget(c *jobClient, front *proc, r *result) error {
	time.Sleep(50 * time.Millisecond) // let the loaded run's tail drain
	expect := svcOracle()
	var recs []jobRec
	for i := 0; i < budgetJobs; i++ {
		rec, err := c.runOne(jobDraw{tenant: "a", kernel: "reduce"})
		if err != nil {
			return fmt.Errorf("budget job: %w", err)
		}
		want := expect("reduce", svcJobN)
		ok := rec.final.State == "done" && rec.final.Checksum == want
		r.check(ok, "budget job %s: state %s checksum %v, oracle %v", rec.id, rec.final.State, rec.final.Checksum, want)
		if ok {
			recs = append(recs, rec)
		}
	}
	spans, err := fetchSpans([]*proc{front})
	if err != nil {
		return err
	}
	rows := make([]samples, len(budgetRows))
	var e2e samples
	for _, j := range recs {
		sp, ok := spans[j.id]
		if !ok {
			continue
		}
		ph := sp.Phases
		started, done := ph["started"], ph["completed"]
		run := max(started, ph["first-chunk"])
		seen := j.lastGetStart.UnixNano()
		if j.lastGetStart.IsZero() || seen < done {
			seen = done
		}
		parts := []float64{
			nsDiff(j.t0.UnixNano(), ph["admitted"]),
			nsDiff(ph["admitted"], ph["enqueued"]),
			nsDiff(ph["enqueued"], started),
			nsDiff(started, run),
			nsDiff(run, done),
			nsDiff(done, seen),
			nsDiff(seen, j.t1.UnixNano()),
		}
		for i, v := range parts {
			rows[i] = append(rows[i], v)
		}
		e2e.add(j.t1.Sub(j.t0))
	}
	if len(e2e) == 0 {
		return fmt.Errorf("budget: no span matched")
	}
	fmt.Printf("# budget: unloaded reduce n=%d on svc-local, %d jobs, median self time per layer\n", svcJobN, len(e2e))
	sum := 0.0
	for i, name := range budgetRows {
		m := rows[i].median()
		sum += m
		fmt.Printf("#   %-18s %9.4f ms\n", name, m*1e3)
	}
	rem := e2e.median() - sum
	// The router appends the job-log record after placement, while the job
	// already runs: it delays the POST reply, not the job.
	fmt.Printf("#   %-18s %9.4f ms (job-log append overlaps execution, see shard.joblog_append_us)\n", "sum of layers", sum*1e3)
	fmt.Printf("#   %-18s %9.4f ms\n", "end to end", e2e.median()*1e3)
	fmt.Printf("#   %-18s %9.4f ms\n", "remainder", rem*1e3)
	r.layers.set("budget.remainder_ms", rem*1e3)
	return nil
}
