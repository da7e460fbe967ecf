package flow

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/obs"
	"pstlbench/internal/serve"
)

// steadyTrace is the stream-windows benchmark's trace shape: event time
// advances 1 µs per event with ±50 µs of jitter, every 101st event 2 ms
// late, keys from a 128-word dictionary.
func steadyTrace(n int, seed uint64) []Event {
	return SynthTrace(n, 0, 1000, 50_000, 101, 2_000_000, 128, seed)
}

// pushCycled pushes events [from, from+n) of trace repeated without end:
// each repetition is shifted past the previous one in event time, so the
// stream stays steady however many events are pushed.
func pushCycled(s *Stream, trace []Event, from, n int) {
	span := int64(len(trace)) * 1000
	for i := from; i < from+n; i++ {
		ev := trace[i%len(trace)]
		ev.TS += int64(i/len(trace)) * span
		s.Push(ev)
	}
}

var pushCases = []struct {
	name string
	win  WindowSpec
	op   string
}{
	{"tumbling-wordcount", WindowSpec{Size: time.Millisecond, Lateness: 200 * time.Microsecond}, "wordcount"},
	{"sliding-reduce", WindowSpec{Size: time.Millisecond, Slide: 250 * time.Microsecond,
		Lateness: 200 * time.Microsecond}, "reduce"},
}

// BenchmarkPush times Stream.Push per event on a steady stream whose
// windows (about 1000 events each) run on a 2-worker server: a tumbling
// wordcount and a sliding reduce at size = 4 slides, the two streams of
// perfbench's stream-windows workload. Run with -benchmem: B/op is the
// heap each pushed event costs, window jobs included.
func BenchmarkPush(b *testing.B) {
	trace := steadyTrace(1<<16, 7)
	for _, bc := range pushCases {
		b.Run(bc.name, func(b *testing.B) {
			srv := serve.New(serve.Config{Workers: 2, QueueCap: 256})
			defer srv.Close()
			e, err := NewEngine(Config{Server: srv, ResultCap: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			s, err := e.AddStream(StreamConfig{Name: bc.name, Window: bc.win, Op: OpSpec{Kind: bc.op}})
			if err != nil {
				b.Fatal(err)
			}
			pushCycled(s, trace, 0, 1<<14) // fill the buffer pool
			b.ReportAllocs()
			b.ResetTimer()
			pushCycled(s, trace, 1<<14, b.N)
			b.StopTimer()
			s.Close()
		})
	}
}

// TestPushBytesPerEvent pins what a pushed event costs the heap on a
// steady sliding stream, window jobs included. Window buffers come from a
// pool, so the per-event share is the window's own records; a buffer grown
// by append for every window cost about 290 B per event.
func TestPushBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("-race's sync.Pool drops a random share of Puts")
	}
	const n = 1 << 17
	e, _ := newTestEngine(t, serve.Config{Workers: 2}, Config{ResultCap: -1})
	bc := pushCases[1]
	s, err := e.AddStream(StreamConfig{Name: "bytes", Window: bc.win, Op: OpSpec{Kind: bc.op}})
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyTrace(1<<16, 11)
	pushCycled(s, trace, 0, 1<<14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pushCycled(s, trace, 1<<14, n)
	runtime.ReadMemStats(&after)
	s.Close()
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B per pushed event", perEvent)
	if perEvent >= 64 {
		t.Errorf("a pushed event allocates %.1f B, want < 64", perEvent)
	}
}

// TestPooledWindowBuffersNeverAlias races four streams on a 2-worker
// server admitting one job at a time against random cancels and
// withdrawals of their window jobs, with pending queues so short that
// windows are dropped. A window's event buffer goes back to the pool when
// the window ends, so a buffer handed back while its job still read it
// would be refilled under the job (a -race report, or a wrong checksum):
// every done window must equal the oracle's bit for bit, and every
// stream's accounting must still balance.
func TestPooledWindowBuffersNeverAlias(t *testing.T) {
	e, srv := newTestEngine(t, serve.Config{Workers: 2, MaxConcurrent: 1, QueueCap: 2},
		Config{ResultCap: 1 << 16})
	lateness := 200 * time.Microsecond
	cfgs := []StreamConfig{
		{Name: "wc", Window: WindowSpec{Size: time.Millisecond, Lateness: lateness},
			Op: OpSpec{Kind: "wordcount"}},
		{Name: "sum", Window: WindowSpec{Size: time.Millisecond, Slide: 250 * time.Microsecond,
			Lateness: lateness}, Op: OpSpec{Kind: "reduce"}},
		// A cap below one window's assignments: DropOldest evicts, and
		// the eviction's copy-down runs on pooled buffers too.
		{Name: "evict", Window: WindowSpec{Size: time.Millisecond, Slide: 500 * time.Microsecond,
			Lateness: lateness}, Op: OpSpec{Kind: "wordcount"}, BufferCap: 800},
		{Name: "sort", Window: WindowSpec{Size: 500 * time.Microsecond, Lateness: lateness},
			Op: OpSpec{Kind: "sort"}},
	}
	const n = 20000
	stop := make(chan struct{})
	var cancelers sync.WaitGroup
	cancelers.Add(1)
	go func() {
		defer cancelers.Done()
		rng := rand.New(rand.NewPCG(1, 2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Job IDs are "job-N" in admission order; aim at the newest,
			// which are queued or running window jobs.
			last := srv.Stats().Accepted
			srv.Cancel("job-" + strconv.FormatInt(last-rng.Int64N(3), 10))
			if rng.IntN(4) == 0 {
				srv.WithdrawQueued(1)
			}
			time.Sleep(time.Duration(rng.IntN(200)) * time.Microsecond)
		}
	}()
	streams := make([]*Stream, len(cfgs))
	traces := make([][]Event, len(cfgs))
	var pushers sync.WaitGroup
	for k, cfg := range cfgs {
		cfg.PendingWindows = 2
		cfgs[k] = cfg
		s, err := e.AddStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams[k], traces[k] = s, steadyTrace(n, uint64(k+1))
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			// Paced, so most windows are admitted and some overflow.
			for i := 0; i < n; i += 200 {
				Replay(s, traces[k][i:i+200])
				time.Sleep(100 * time.Microsecond)
			}
			s.Flush()
		}()
	}
	pushers.Wait()
	for _, s := range streams {
		s.Close()
	}
	close(stop)
	cancelers.Wait()

	results := map[string][]WindowResult{}
	for _, r := range e.Results() {
		results[r.Stream] = append(results[r.Stream], r)
	}
	var done, canceled, dropped int64
	for k, cfg := range cfgs {
		want, err := Audit(cfg, traces[k])
		if err != nil {
			t.Fatal(err)
		}
		st := streams[k].Stats()
		if st.Events != want.Accepted || st.LateEvents != want.Late || st.Assigned != want.Assigned ||
			st.DroppedEvents != want.DroppedEvents {
			t.Fatalf("%s: events/late/assigned/dropped (%d,%d,%d,%d), audit (%d,%d,%d,%d)", cfg.Name,
				st.Events, st.LateEvents, st.Assigned, st.DroppedEvents,
				want.Accepted, want.Late, want.Assigned, want.DroppedEvents)
		}
		if terminal := st.WindowsDone + st.WindowsCanceled + st.WindowsDropped + st.WindowsEmpty; terminal != st.WindowsClosed {
			t.Fatalf("%s: %d windows terminal, %d closed", cfg.Name, terminal, st.WindowsClosed)
		}
		closedEvents := 0
		for _, r := range results[cfg.Name] {
			closedEvents += r.Events
			if r.State != "done" {
				continue
			}
			if r.Events != want.WindowEvents[r.Start] || r.Checksum != want.Checksums[r.Start] {
				t.Fatalf("%s window %d: %d events checksum %v, audit %d events checksum %v", cfg.Name,
					r.Start, r.Events, r.Checksum, want.WindowEvents[r.Start], want.Checksums[r.Start])
			}
		}
		if st.Assigned != int64(closedEvents)+st.DroppedEvents+int64(st.Buffered) {
			t.Fatalf("%s: conservation: assigned %d != closed %d + dropped %d + buffered %d",
				cfg.Name, st.Assigned, closedEvents, st.DroppedEvents, st.Buffered)
		}
		if len(results[cfg.Name]) != len(want.WindowEvents) {
			t.Fatalf("%s: %d window results, audit %d non-empty windows",
				cfg.Name, len(results[cfg.Name]), len(want.WindowEvents))
		}
		done += st.WindowsDone
		canceled += st.WindowsCanceled
		dropped += st.WindowsDropped
	}
	t.Logf("windows done %d, canceled %d, dropped %d", done, canceled, dropped)
	if done == 0 || canceled == 0 || dropped == 0 {
		t.Fatalf("want done, canceled and dropped windows: %d, %d, %d", done, canceled, dropped)
	}
}

// TestSaturatedServerDropsWindow drives the admission-refusal path: while
// a blocker holds the server's only slot and queue place, a closed window
// is refused through every retry and ends "dropped" with its events
// accounted and its close-to-drop time as latency. Once the server frees
// up the next window runs and matches its sum.
func TestSaturatedServerDropsWindow(t *testing.T) {
	e, srv := newTestEngine(t, serve.Config{Workers: 1, MaxConcurrent: 1, QueueCap: 1}, Config{})
	release := make(chan struct{})
	blocker := func(core.Policy) float64 { <-release; return 0 }
	var blockers []*serve.Job
	for i := 0; i < 2; i++ {
		j, err := srv.Submit(serve.Spec{Tenant: "blocker", N: 1, Fn: blocker})
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, j)
	}
	s, err := e.AddStream(StreamConfig{Name: "sat", Window: WindowSpec{Size: 10}, Op: OpSpec{Kind: "reduce"}})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 10; ts++ {
		s.Push(Event{TS: ts, Val: 2, Key: "k"})
	}
	s.Push(Event{TS: 10, Val: 3}) // closes [0, 10)
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().WindowsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("window not dropped on a saturated server: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, j := range blockers {
		<-j.Done()
	}
	s.Close()
	st := settle(t, s)
	res := e.Results()
	if len(res) != 2 {
		t.Fatalf("results %+v, want the dropped window and the flushed one", res)
	}
	if r := res[0]; r.State != "dropped" || r.Start != 0 || r.Events != 10 || r.Flushed || r.LatencySeconds <= 0 {
		t.Fatalf("refused window result %+v", r)
	}
	if r := res[1]; r.State != "done" || r.Start != 10 || r.Checksum != 3 || !r.Flushed {
		t.Fatalf("flushed window result %+v", r)
	}
	if st.WindowsDropped != 1 || st.WindowsDone != 1 || st.Assigned != 11 || st.Checksum != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestClosedStreamRetention closes more streams than the engine keeps:
// Stats lists the open stream and the newest closedStreams closed ones,
// WindowsFinished never goes down (a reader samples it throughout), the
// forgotten streams leave /metrics, and a forgotten name can be reused.
func TestClosedStreamRetention(t *testing.T) {
	met := obs.NewRegistry()
	e, _ := newTestEngine(t, serve.Config{Workers: 2}, Config{Metrics: met, ResultCap: -1})
	cfg := func(name string) StreamConfig {
		return StreamConfig{Name: name, Window: WindowSpec{Size: 10}, Op: OpSpec{Kind: "reduce"}}
	}
	live, err := e.AddStream(cfg("live"))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var prev int64
		for {
			n := e.WindowsFinished()
			if n < prev {
				sampled <- fmt.Errorf("WindowsFinished went from %d to %d", prev, n)
				return
			}
			prev = n
			select {
			case <-stop:
				sampled <- nil
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	const total = closedStreams + 40
	for i := 0; i < total; i++ {
		s, err := e.AddStream(cfg("s" + strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		s.Push(Event{TS: 0, Val: 1})
		s.Push(Event{TS: 10, Val: 1}) // closes [0, 10); Close flushes [10, 20)
		s.Close()
	}
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if got := e.WindowsFinished(); got != 2*total {
		t.Fatalf("WindowsFinished = %d, want %d", got, 2*total)
	}
	stats := e.Stats()
	if len(stats) != closedStreams+1 || stats[0].Stream != "live" ||
		stats[1].Stream != "s40" || stats[len(stats)-1].Stream != "s"+strconv.Itoa(total-1) {
		t.Fatalf("listed %d streams, %s first after live, %s last",
			len(stats), stats[1].Stream, stats[len(stats)-1].Stream)
	}
	if e.Stream("s39") != nil || e.Stream("s40") == nil {
		t.Fatal("Stream lookup disagrees with the retention ring")
	}
	scrape := func() string {
		var b bytes.Buffer
		if err := met.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	text := scrape()
	if strings.Contains(text, `stream="s39"`) || !strings.Contains(text, `stream="s40"`) ||
		!strings.Contains(text, `stream="live"`) {
		t.Fatal("metrics do not list exactly the retained streams")
	}
	if got := strings.Count(text, "pstld_flow_events_total{"); got != closedStreams+1 {
		t.Fatalf("%d pstld_flow_events_total series, want %d", got, closedStreams+1)
	}
	if _, err := e.AddStream(cfg("s40")); err == nil {
		t.Fatal("a retained closed stream's name was reused")
	}
	// A forgotten name starts over: fresh counters and fresh series.
	s0, err := e.AddStream(cfg("s0"))
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 3; ts++ {
		s0.Push(Event{TS: ts, Val: 1})
	}
	if st := s0.Stats(); st.Events != 3 {
		t.Fatalf("reused name carries old counts: %+v", st)
	}
	if !strings.Contains(scrape(), `pstld_flow_events_total{stream="s0"} 3`+"\n") {
		t.Fatal("reused name's series does not read the new stream")
	}
	s0.Close()
	live.Close()
	if got := e.WindowsFinished(); got != 2*total+1 {
		t.Fatalf("WindowsFinished = %d after the reused stream, want %d", got, 2*total+1)
	}
}
