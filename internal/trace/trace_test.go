package trace

import (
	"math"
	"sync"
	"testing"
)

func TestNilTracerAndBufAreDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Tracks() != 0 || tr.Now() != 0 || tr.Buf(0) != nil {
		t.Fatal("nil tracer not inert")
	}
	tr.Advance(5) // must not panic
	if Summarize(tr) != nil {
		t.Fatal("nil tracer summarized to non-nil")
	}
	var b *Buf
	b.Span(KindChunk, 0, 10, 0, 0)
	b.Instant(KindSteal, 0, 0, 0)
	if b.Events() != nil || b.Lost() != 0 || b.Recorded() != 0 {
		t.Fatal("nil buf not inert")
	}
}

func TestWallClockMonotonic(t *testing.T) {
	tr := New(1, 16)
	a := tr.Now()
	b := tr.Now()
	if a < 0 || b < a {
		t.Fatalf("wall clock not monotonic: %d then %d", a, b)
	}
}

func TestVirtualClockCursor(t *testing.T) {
	tr := NewVirtual(1, 16)
	if tr.Now() != 0 {
		t.Fatalf("virtual clock starts at %d, want 0", tr.Now())
	}
	tr.Advance(1500)
	tr.Advance(500)
	if tr.Now() != 2000 {
		t.Fatalf("virtual clock = %d, want 2000", tr.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advance on wall tracer did not panic")
		}
	}()
	New(1, 16).Advance(1)
}

func TestRingOverflowCountsLostAndEvictsOldestFirst(t *testing.T) {
	tr := New(1, 8)
	b := tr.Buf(0)
	const total = 20
	for i := 0; i < total; i++ {
		b.Instant(KindIteration, int64(i), int64(i), 0)
	}
	if got, want := b.Lost(), uint64(total-8); got != want {
		t.Fatalf("Lost = %d, want %d", got, want)
	}
	if got, want := b.Recorded(), uint64(total); got != want {
		t.Fatalf("Recorded = %d, want %d", got, want)
	}
	evs := b.Events()
	if len(evs) != 8 {
		t.Fatalf("surviving events = %d, want 8", len(evs))
	}
	// Oldest-first eviction: survivors are the newest 8, in order.
	for i, e := range evs {
		if want := int64(total - 8 + i); e.A0 != want {
			t.Fatalf("event %d has A0 = %d, want %d (oldest-first order violated)", i, e.A0, want)
		}
	}
	if tr.Lost() != uint64(total-8) || tr.TotalEvents() != total {
		t.Fatalf("tracer totals: lost=%d events=%d", tr.Lost(), tr.TotalEvents())
	}
}

func TestEventsBelowCapacityInOrder(t *testing.T) {
	tr := New(2, 8)
	b := tr.Buf(1)
	b.Span(KindChunk, 10, 20, 0, 5)
	b.Span(KindChunk, 20, 30, 5, 9)
	evs := tr.Events(1)
	if len(evs) != 2 || evs[0].Start != 10 || evs[1].Start != 20 {
		t.Fatalf("events = %+v", evs)
	}
	if len(tr.Events(0)) != 0 {
		t.Fatal("track 0 should be empty")
	}
}

// TestConcurrentProducersWithDrainingExporter is the -race stress test of
// the satellite list: every worker track emits continuously while an
// exporter goroutine drains snapshots and summaries concurrently.
func TestConcurrentProducersWithDrainingExporter(t *testing.T) {
	const (
		workers   = 8
		perWorker = 5000
	)
	tr := New(workers, 1024)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Exporter: drain every track and summarize while producers run.
	var exp sync.WaitGroup
	exp.Add(1)
	go func() {
		defer exp.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < workers; i++ {
				_ = tr.Events(i)
				_ = tr.Lost()
			}
			_ = Summarize(tr)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := tr.Buf(w)
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					b.Span(KindChunk, int64(i), int64(i+2), 0, 10)
				case 1:
					b.Instant(KindSteal, int64(i), int64((w+1)%workers), TierRemote)
				default:
					b.Instant(KindWakeup, int64(i), int64(w), 0)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	exp.Wait()
	if got, want := tr.TotalEvents(), uint64(workers*perWorker); got != want {
		t.Fatalf("recorded %d events, want %d", got, want)
	}
	// Survivors + lost must account for every record.
	var kept uint64
	for i := 0; i < workers; i++ {
		kept += uint64(len(tr.Events(i)))
	}
	if kept+tr.Lost() != tr.TotalEvents() {
		t.Fatalf("kept %d + lost %d != recorded %d", kept, tr.Lost(), tr.TotalEvents())
	}
}

func TestInternNames(t *testing.T) {
	tr := New(1, 8)
	a := tr.Intern("reduce/native/stealing/1024")
	b := tr.Intern("sort/native/stealing/1024")
	if a == b {
		t.Fatal("distinct names interned to same id")
	}
	if tr.Intern("reduce/native/stealing/1024") != a {
		t.Fatal("re-interning changed the id")
	}
	if tr.NameOf(a) != "reduce/native/stealing/1024" || tr.NameOf(999) != "" {
		t.Fatalf("NameOf mismatch: %q", tr.NameOf(a))
	}
}

func TestSummarizeDistributions(t *testing.T) {
	tr := New(2, 64)
	tr.SetLabel(0, "worker 0")
	b := tr.Buf(0)
	// Three chunks of 1ms, 2ms, 10ms with 1ms idle gaps; one remote steal
	// 0.5ms before the second chunk starts.
	ms := int64(1e6)
	b.Span(KindChunk, 0, 1*ms, 0, 100)
	b.Instant(KindSteal, 1*ms+ms/2, 1, TierRemote)
	b.Span(KindChunk, 2*ms, 4*ms, 100, 200)
	b.Span(KindChunk, 5*ms, 15*ms, 200, 300)
	b.Span(KindPark, 15*ms, 16*ms, 0, 0)
	s := Summarize(tr)
	ts := s.Tracks[0]
	if ts.Label != "worker 0" || ts.Chunks != 3 || ts.RemoteSteals != 1 || ts.Parks != 1 {
		t.Fatalf("track stats: %+v", ts)
	}
	if ts.Chunk.Count != 3 || math.Abs(ts.Chunk.P50-2e-3) > 1e-9 || math.Abs(ts.Chunk.Max-10e-3) > 1e-9 {
		t.Fatalf("chunk dist: %+v", ts.Chunk)
	}
	if ts.StealToWork.Count != 1 || math.Abs(ts.StealToWork.P50-0.5e-3) > 1e-9 {
		t.Fatalf("steal-to-work dist: %+v", ts.StealToWork)
	}
	if math.Abs(ts.BusySeconds-13e-3) > 1e-9 {
		t.Fatalf("busy = %v, want 13ms", ts.BusySeconds)
	}
	if ts.IdleGap.Total() != 2 {
		t.Fatalf("idle gaps = %d, want 2 (%s)", ts.IdleGap.Total(), ts.IdleGap)
	}
	if s.Chunk.Count != 3 || s.Events != 5 {
		t.Fatalf("aggregate: %+v events=%d", s.Chunk, s.Events)
	}
}

func TestSummarizeWindowFilters(t *testing.T) {
	tr := New(1, 64)
	b := tr.Buf(0)
	b.Span(KindChunk, 0, 10, 0, 1)
	b.Span(KindChunk, 100, 110, 1, 2)
	b.Span(KindChunk, 200, 210, 2, 3)
	s := SummarizeWindow(tr, 50, 150)
	if s.Tracks[0].Chunks != 1 || s.Events != 1 {
		t.Fatalf("window kept %d chunks / %d events, want 1/1", s.Tracks[0].Chunks, s.Events)
	}
}

func TestBusyUnionMergesNestedSpans(t *testing.T) {
	tr := New(1, 16)
	b := tr.Buf(0)
	// An outer loop chunk [0, 10ms] wrapping two chunks of a nested loop
	// that the worker ran while waiting for it.
	ms := int64(1e6)
	b.Span(KindChunk, 0, 10*ms, 0, 4)
	b.Span(KindChunk, 1*ms, 3*ms, 0, 50)
	b.Span(KindChunk, 4*ms, 6*ms, 50, 100)
	s := Summarize(tr)
	if got := s.Tracks[0].BusySeconds; math.Abs(got-10e-3) > 1e-9 {
		t.Fatalf("busy union = %v, want 10ms (nested spans double-counted)", got)
	}
	if s.Tracks[0].IdleGap.Total() != 0 {
		t.Fatal("nested spans produced phantom idle gaps")
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, s := range []float64{0.5e-6, 5e-6, 50e-6, 0.5e-3, 5e-3, 50e-3} {
		h.Observe(s)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bucket %d = %d, want 1 (%s)", i, c, h)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
}
