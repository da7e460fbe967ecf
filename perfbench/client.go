package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pstlbench/internal/serve"
)

// pollGaps is the wait before each GET after a POST returns: the first GET
// goes at once, then after these gaps, the last one repeating.
var pollGaps = []time.Duration{0, 250 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, time.Millisecond, 2 * time.Millisecond}

// wireJob is the part of the job JSON the benchmark reads.
type wireJob struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	Reason   string  `json:"reason"`
	Checksum float64 `json:"checksum"`
}

func (j wireJob) terminal() bool { return j.State == "done" || j.State == "canceled" }

// jobRec is one job as the client saw it.
type jobRec struct {
	id                       string
	t0, t1                   time.Time // POST start; end of the GET that saw it terminal
	postRTT                  time.Duration
	lastGetStart, lastGetEnd time.Time // zero when the POST reply was already terminal
	polls                    int
	getRTTs                  []time.Duration
	final                    wireJob
}

type jobClient struct {
	base string
	hc   *http.Client
}

// newJobClient allows at most conns connections to base.
func newJobClient(base string, conns int) *jobClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: 30 * time.Second}
	return &jobClient{base: base, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (c *jobClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path into v.
func (c *jobClient) getJSON(path string, v any) error {
	status, b, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(b, v)
}

// errRejected marks a 429 from admission control.
type errRejected struct{ retryAfter time.Duration }

func (e errRejected) Error() string { return "rejected (429)" }

// runOne submits one job and polls it to a terminal state.
func (c *jobClient) runOne(d jobDraw) (jobRec, error) {
	rec := jobRec{t0: time.Now()}
	body, _ := json.Marshal(serve.SubmitRequest{Kernel: d.kernel, N: svcJobN, Tenant: d.tenant})
	status, b, err := c.do("POST", "/jobs", body)
	rec.postRTT = time.Since(rec.t0)
	if err != nil {
		return rec, err
	}
	if status == http.StatusTooManyRequests {
		var eb struct {
			RetryAfterMS int64 `json:"retry_after_ms"`
		}
		json.Unmarshal(b, &eb)
		return rec, errRejected{time.Duration(eb.RetryAfterMS) * time.Millisecond}
	}
	if status != http.StatusAccepted {
		return rec, fmt.Errorf("POST /jobs: status %d: %s", status, b)
	}
	if err := json.Unmarshal(b, &rec.final); err != nil {
		return rec, err
	}
	rec.id = rec.final.ID
	for !rec.final.terminal() {
		time.Sleep(pollGaps[min(rec.polls, len(pollGaps)-1)])
		rec.lastGetStart = time.Now()
		status, b, err := c.do("GET", "/jobs/"+rec.id, nil)
		rec.lastGetEnd = time.Now()
		rec.polls++
		rec.getRTTs = append(rec.getRTTs, rec.lastGetEnd.Sub(rec.lastGetStart))
		if err != nil {
			return rec, err
		}
		if status != http.StatusOK {
			return rec, fmt.Errorf("GET /jobs/%s: status %d", rec.id, status)
		}
		if err := json.Unmarshal(b, &rec.final); err != nil {
			return rec, err
		}
	}
	rec.t1 = time.Now()
	return rec, nil
}

// expectFunc is the checksum oracle; tests inject a wrong one.
type expectFunc func(kernel string, n int) float64

// svcOracle is serve.ExpectedChecksum, memoized: the sort oracle sorts.
func svcOracle() expectFunc {
	want := map[string]float64{}
	for _, k := range []string{"reduce", "sort"} {
		want[k] = serve.ExpectedChecksum(k, svcJobN)
	}
	return func(kernel string, n int) float64 { return want[kernel] }
}

// loadStats is what a closed-loop load measured.
type loadStats struct {
	jobs               []jobRec // measured, correct jobs
	lat                samples
	attempts, rejected int64
	elapsed            time.Duration
}

func (s *loadStats) jobsPerSec() float64 { return float64(len(s.jobs)) / s.elapsed.Seconds() }

// runLoad drives clients closed loop against c for warm (unmeasured) plus
// dur, checking every measured job against expect.
func runLoad(c *jobClient, clients int, seed uint64, warm, dur time.Duration, expect expectFunc, r *result) *loadStats {
	start := time.Now()
	measureFrom, end := start.Add(warm), start.Add(warm+dur)
	per := make([]*loadStats, clients)
	results := make([]*result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		per[i], results[i] = &loadStats{}, newResult()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, res := per[i], results[i]
			mix := newJobMix(seed, i)
			for errs := 0; time.Now().Before(end) && errs < 100; {
				d := mix.next()
				rec, err := c.runOne(d)
				measured := !rec.t0.Before(measureFrom)
				if measured {
					st.attempts++
				}
				if rej, ok := err.(errRejected); ok {
					if measured {
						st.rejected++
						res.check(false, "%s/%s job rejected by admission control", d.tenant, d.kernel)
					}
					time.Sleep(min(rej.retryAfter, 50*time.Millisecond))
					continue
				}
				if err != nil {
					errs++
					res.check(false, "%s/%s job: %v", d.tenant, d.kernel, err)
					time.Sleep(10 * time.Millisecond)
					continue
				}
				errs = 0
				if !measured {
					continue
				}
				want := expect(d.kernel, svcJobN)
				ok := rec.final.State == "done" && rec.final.Checksum == want
				res.check(ok, "%s %s/%s: state %s (%s) checksum %v, oracle %v",
					rec.id, d.tenant, d.kernel, rec.final.State, rec.final.Reason, rec.final.Checksum, want)
				if ok {
					st.jobs = append(st.jobs, rec)
					st.lat.add(rec.t1.Sub(rec.t0))
				}
			}
		}(i)
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(measureFrom)}
	for i := range per {
		r.merge(results[i])
		out.jobs = append(out.jobs, per[i].jobs...)
		out.lat = append(out.lat, per[i].lat...)
		out.attempts += per[i].attempts
		out.rejected += per[i].rejected
	}
	return out
}
