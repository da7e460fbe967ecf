package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// The svc workloads drive real pstld processes over loopback HTTP, closed
// loop: each of nproc clients POSTs a job, polls GET /jobs/{id} on the fixed
// pollGaps schedule until it is terminal, checks the checksum, and
// immediately sends the next. svc-local fronts two in-process shards with a
// job log; svc-remote puts the cluster RPC hop between the router and two
// worker processes and is otherwise the same, so svc-local is its control.

// svcTopology starts one instance of a svc workload's processes; the
// first returned process is the front end the clients talk to.
type svcTopology func(e *env, rep int) ([]*proc, error)

func runSvcLocal(e *env, seed uint64, dur time.Duration, traced bool) (*result, error) {
	local := func(e *env, rep int) ([]*proc, error) {
		log, err := e.jobLogPath("svc-local", rep)
		if err != nil {
			return nil, err
		}
		p, err := e.startPstld(fmt.Sprintf("svc-local-%d", rep),
			"-shards", "2", "-joblog", log, "-workers", strconv.Itoa(e.facts.svcWorkers))
		if err != nil {
			return nil, err
		}
		return []*proc{p}, p.waitReady(2, 20*time.Second)
	}
	return runSvc(e, "svc-local", local, seed, dur, traced)
}

func runSvcRemote(e *env, seed uint64, dur time.Duration, traced bool) (*result, error) {
	remote := func(e *env, rep int) ([]*proc, error) {
		var workers []*proc
		for w := 1; w <= 2; w++ {
			p, err := e.startPstld(fmt.Sprintf("svc-remote-%d-worker%d", rep, w),
				"-worker", "-workers", strconv.Itoa(e.facts.svcWorkers))
			if err != nil {
				return workers, err
			}
			workers = append(workers, p)
		}
		for _, p := range workers {
			if err := p.waitReady(0, 20*time.Second); err != nil {
				return workers, err
			}
		}
		log, err := e.jobLogPath("svc-remote", rep)
		if err != nil {
			return workers, err
		}
		router, err := e.startPstld(fmt.Sprintf("svc-remote-%d-router", rep),
			"-peers", workers[0].url+","+workers[1].url, "-joblog", log)
		if err != nil {
			return workers, err
		}
		return append([]*proc{router}, workers...), router.waitReady(2, 20*time.Second)
	}
	return runSvc(e, "svc-remote", remote, seed, dur, traced)
}

// jobLogPath makes a fresh job-log directory for one process start.
func (e *env) jobLogPath(name string, rep int) (string, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", name, rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, "jobs.jsonl"), nil
}

const svcWarm = 300 * time.Millisecond

func runSvc(e *env, name string, start svcTopology, seed uint64, dur time.Duration, traced bool) (*result, error) {
	r := newResult()
	reps := 5
	if traced {
		reps = 1
	}
	// Set-up is process start to ready, median of five cold starts; the
	// last instance serves the measured load.
	var setups []float64
	var procs []*proc
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for rep := 0; rep < reps; rep++ {
		for _, p := range procs {
			p.stop()
		}
		t0 := time.Now()
		var err error
		procs, err = start(e, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c := newJobClient(procs[0].url, e.facts.nproc)
	fmt.Printf("# %s poll schedule after POST: %v (last repeats); clients=%d job n=%d\n",
		name, pollGaps, e.facts.nproc, svcJobN)

	if traced {
		return r, svcLayers(e, name, procs, c, seed, dur, r)
	}
	ld := runLoad(c, e.facts.nproc, seed, svcWarm, dur, svcOracle(), r)
	if len(ld.jobs) == 0 {
		return nil, fmt.Errorf("no job completed correctly")
	}
	rss := 0.0
	for _, p := range procs {
		v, err := peakRSSMiB(p.pid())
		if err != nil {
			return nil, err
		}
		rss += v
	}
	fmt.Printf("# %s jobs_per_s %.4g, job latency %s, rejected %d/%d\n",
		name, ld.jobsPerSec(), ld.lat.summary(1e3, "ms"), ld.rejected, ld.attempts)
	r.e2e.set("setup_s", medianOf(setups))
	r.e2e.set("ops_per_s", ld.jobsPerSec())
	r.e2e.set("op_p50_ms", ld.lat.median()*1e3)
	r.e2e.set("op_tail_ms", ld.lat.quantile(0.99)*1e3)
	r.e2e.set("peak_rss_mb", rss)
	return r, nil
}
