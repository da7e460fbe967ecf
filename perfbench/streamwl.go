package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pstlbench/internal/flow"
	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// The stream-windows workload replays seeded traces through an in-process
// flow.Engine over a serve.Server that a closed-loop batch tenant shares.
// Each round pushes a fresh pair of streams (wc: wordcount, tumbling; sum:
// reduce, sliding at size = 4x slide) from one goroutine, interleaved, then
// closes them; every window of every round is audited afterwards against
// flow.Audit over the regenerated trace.

const (
	batchN       = 1 << 18
	pauseRetries = 3
)

func streamConfig(d streamDef, round int) flow.StreamConfig {
	return flow.StreamConfig{
		Name:   fmt.Sprintf("%s-%d", d.name, round),
		Tenant: d.name,
		Window: flow.WindowSpec{Size: time.Duration(d.size), Slide: time.Duration(d.slide),
			Lateness: latenessNS},
		Op:     flow.OpSpec{Kind: d.op},
		Policy: flow.Pause,
		// Far above a round's open assignments and closed windows: under
		// replay a paused push can never succeed (only pushes close
		// windows), so the workload is sized to never pause or drop.
		BufferCap:      1 << 20,
		PendingWindows: 4096,
	}
}

// timedResult is a window result with the time its OnResult ran.
type timedResult struct {
	flow.WindowResult
	at time.Time
}

// windowLog collects OnResult callbacks; it never blocks the engine.
type windowLog struct {
	mu  sync.Mutex
	res []timedResult
}

func (l *windowLog) add(r flow.WindowResult) {
	at := time.Now()
	l.mu.Lock()
	l.res = append(l.res, timedResult{r, at})
	l.mu.Unlock()
}

func (l *windowLog) take() []timedResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.res
	l.res = nil
	return out
}

// streamPlane is one engine over one server.
type streamPlane struct {
	srv   *serve.Server
	eng   *flow.Engine
	log   *windowLog
	spans *obs.SpanLog
}

func newStreamPlane(workers int, traced bool) (*streamPlane, error) {
	sp := &streamPlane{log: &windowLog{}}
	if traced {
		sp.spans = obs.NewSpanLog(1 << 16)
	}
	sp.srv = serve.New(serve.Config{Workers: workers, MaxConcurrent: 2, QueueCap: 256, Spans: sp.spans})
	eng, err := flow.NewEngine(flow.Config{Server: sp.srv, ResultCap: -1, OnResult: sp.log.add})
	if err != nil {
		sp.srv.Close()
		return nil, err
	}
	sp.eng = eng
	return sp, nil
}

func (sp *streamPlane) close() {
	sp.eng.Close()
	sp.srv.Close()
}

// roundOut is one replayed round: its streams' final stats, results and the
// time each window end was passed by the watermark.
type roundOut struct {
	round            int
	n                int
	attempts, paused int64
	dur              time.Duration
	stats            []flow.StreamStats
	results          [][]timedResult
	closes           []map[int64]time.Time // window end -> return of the push that passed it
}

// runRound replays n events per stream; pushTimes, when set, receives the
// duration of every Push call.
func (sp *streamPlane) runRound(seed uint64, round, n int, pushTimes *samples) (*roundOut, error) {
	out := &roundOut{round: round, n: n}
	var streams []*flow.Stream
	var traces [][]flow.Event
	for k, d := range streamDefs {
		s, err := sp.eng.AddStream(streamConfig(d, round))
		if err != nil {
			return nil, err
		}
		streams = append(streams, s)
		traces = append(traces, roundTrace(seed, round, k, n))
		out.closes = append(out.closes, map[int64]time.Time{})
	}
	wm := make([]int64, len(streams))
	seen := make([]bool, len(streams))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for k, s := range streams {
			ev := traces[k][i]
			var st flow.PushStatus
			for try := 0; try < pauseRetries; try++ {
				out.attempts++
				if pushTimes != nil {
					p0 := time.Now()
					st = s.Push(ev)
					pushTimes.add(time.Since(p0))
				} else {
					st = s.Push(ev)
				}
				if st != flow.PushPaused {
					break
				}
				out.paused++
				runtime.Gosched()
			}
			if st != flow.PushAccepted {
				continue
			}
			// Track the watermark as the stream does (max event time minus
			// lateness) to stamp each window end when a push passes it.
			w := ev.TS - latenessNS
			if !seen[k] {
				wm[k], seen[k] = w, true
				continue
			}
			if w <= wm[k] {
				continue
			}
			slide := streamDefs[k].slide
			if first := (floorDiv(wm[k], slide) + 1) * slide; first <= w {
				now := time.Now()
				for end := first; end <= w; end += slide {
					out.closes[k][end] = now
				}
			}
			wm[k] = w
		}
	}
	for _, s := range streams {
		s.Close() // flushes the open windows and waits for every window job
	}
	last := t0
	res := sp.log.take()
	out.results = make([][]timedResult, len(streams))
	for _, tr := range res {
		if tr.at.After(last) {
			last = tr.at
		}
		for k, s := range streams {
			if tr.Stream == s.Name() {
				out.results[k] = append(out.results[k], tr)
			}
		}
	}
	out.dur = last.Sub(t0)
	for _, s := range streams {
		out.stats = append(out.stats, s.Stats())
	}
	return out, nil
}

// latencies appends, per watermark-closed window, the time from the push
// that closed it to its OnResult.
func (o *roundOut) latencies(s *samples) {
	for k := range o.results {
		for _, tr := range o.results[k] {
			if tr.Flushed {
				continue
			}
			if c, ok := o.closes[k][tr.End]; ok {
				s.add(max(0, tr.at.Sub(c)))
			}
		}
	}
}

// audit checks every stream of the round against flow.Audit over the
// regenerated trace: event counts and, per window, count and checksum,
// with exact equality. A dropped or canceled window fails.
func (o *roundOut) audit(seed uint64, r *result) error {
	for k, d := range streamDefs {
		cfg := streamConfig(d, o.round)
		want, err := flow.Audit(cfg, roundTrace(seed, o.round, k, o.n))
		if err != nil {
			return err
		}
		var live []flow.WindowResult
		for _, tr := range o.results[k] {
			live = append(live, tr.WindowResult)
		}
		compareRound(r, cfg.Name, o.stats[k], live, want)
	}
	return nil
}

func compareRound(r *result, name string, st flow.StreamStats, live []flow.WindowResult, want flow.AuditResult) {
	r.check(st.Events == want.Accepted && st.LateEvents == want.Late,
		"%s: events %d late %d, oracle %d late %d", name, st.Events, st.LateEvents, want.Accepted, want.Late)
	got := map[int64]flow.WindowResult{}
	for _, w := range live {
		got[w.Start] = w
	}
	for start, n := range want.WindowEvents {
		w, ok := got[start]
		delete(got, start)
		r.check(ok && w.State == "done" && w.Events == n && w.Checksum == want.Checksums[start],
			"%s window %d: %s %d events checksum %v, oracle %d events checksum %v",
			name, start, w.State, w.Events, w.Checksum, n, want.Checksums[start])
	}
	for start, w := range got {
		r.check(false, "%s window %d: %s, not in the oracle", name, start, w.State)
	}
}

func runStream(e *env, seed uint64, dur time.Duration, traced bool) (*result, error) {
	r := newResult()
	reps := 9
	if traced {
		reps = 1
	}
	// Set-up: server, engine and streams built, and a warm-up round whose
	// windows all reached OnResult; median of nine.
	var setups []float64
	var sp *streamPlane
	for rep := 0; rep < reps; rep++ {
		if sp != nil {
			sp.close()
		}
		t0 := time.Now()
		var err error
		if sp, err = newStreamPlane(e.facts.nproc, traced); err != nil {
			return nil, err
		}
		if _, err := sp.runRound(seed, -1-rep, roundEvents, nil); err != nil {
			sp.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sp.close()

	batch := startBatch(sp.srv)
	var rounds []*roundOut
	var pushTimes samples
	untracedRounds := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		var pt *samples
		if traced && time.Since(start) >= dur/4 {
			pt = &pushTimes
		} else {
			untracedRounds++
		}
		o, err := sp.runRound(seed, round, roundEvents, pt)
		if err != nil {
			batch.stop()
			return nil, err
		}
		rounds = append(rounds, o)
	}
	batchDone, batchElapsed := batch.stop()
	r.merge(batch.res)

	var events, attempts, paused, assigned int64
	var busy time.Duration
	var lat, latBase samples
	for i, o := range rounds {
		if err := o.audit(seed, r); err != nil {
			return nil, err
		}
		busy += o.dur
		attempts += o.attempts
		paused += o.paused
		for _, st := range o.stats {
			events += st.Events
			assigned += st.Assigned
		}
		if traced && i < untracedRounds {
			o.latencies(&latBase)
		} else {
			o.latencies(&lat)
		}
	}
	eps := float64(events) / busy.Seconds()
	bps := float64(batchDone) / batchElapsed.Seconds()
	fmt.Printf("# stream-windows %d rounds x %d events/stream; events_per_s %.4g; window latency %s; batch_jobs_per_s %.4g (sort n=%d)\n",
		len(rounds), roundEvents, eps, lat.summary(1e3, "ms"), bps, batchN)

	if !traced {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		r.e2e.set("setup_s", medianOf(setups))
		r.e2e.set("ops_per_s", eps)
		r.e2e.set("op_p50_ms", lat.median()*1e3)
		r.e2e.set("op_tail_ms", lat.quantile(0.99)*1e3)
		r.e2e.set("peak_rss_mb", rss)
		return r, nil
	}
	L := r.layers
	L.set("flow.push_ns", pushTimes.median()*1e9)
	L.set("flow.paused_frac", float64(paused)/float64(attempts))
	L.set("flow.assignments_per_event", float64(assigned)/float64(events))
	for k, d := range streamDefs {
		L.set("flow."+d.op+".apply_ms", applyProbe(e.facts.nproc, seed, k, 200)*1e3)
	}
	var winWait, batchWait samples
	for _, s := range sp.spans.Spans() {
		w := nsDiff(s.At(obs.PhaseEnqueued), s.At(obs.PhaseStarted))
		if s.At(obs.PhaseStarted) == 0 {
			continue
		}
		if s.Tenant == "batch" {
			batchWait = append(batchWait, w)
		} else if strings.HasPrefix(s.Kernel, "flow:") {
			winWait = append(winWait, w)
		}
	}
	L.set("serve.window_queue_wait_ms", winWait.median()*1e3)
	L.set("serve.batch_queue_wait_ms", batchWait.median()*1e3)
	L.set("serve.batch_jobs_per_s", bps)
	L.set("trace.overhead_frac", lat.median()/latBase.median()-1)
	return r, nil
}
