package native

import (
	"sync"
	"testing"

	"pstlbench/internal/exec"
	"pstlbench/internal/trace"
)

// coverFromTrace asserts the chunk spans of a traced run exactly tile the
// iteration space [0, n): every element covered once, no overlaps.
func coverFromTrace(t *testing.T, tr *trace.Tracer, n int) {
	t.Helper()
	seen := make([]int, n)
	for ti := 0; ti < tr.Tracks(); ti++ {
		for _, e := range tr.Events(ti) {
			if e.Kind != trace.KindChunk || e.A0 < 0 {
				continue
			}
			for i := e.A0; i < e.A1; i++ {
				seen[i]++
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("element %d covered %d times in trace", i, c)
		}
	}
}

func TestTracedPoolRecordsChunkSpans(t *testing.T) {
	const workers, n = 4, 10_000
	for _, s := range []Strategy{StrategyForkJoin, StrategyStealing, StrategyCentralQueue} {
		t.Run(s.String(), func(t *testing.T) {
			tr := trace.New(workers+1, trace.DefaultCapacity)
			p := NewTraced(workers, s, Topology{}, tr)
			defer p.Close()
			var mu sync.Mutex
			got := 0
			p.ForChunks(n, exec.Fine, func(_, lo, hi int) {
				mu.Lock()
				got += hi - lo
				mu.Unlock()
			})
			if got != n {
				t.Fatalf("loop covered %d elements, want %d", got, n)
			}
			coverFromTrace(t, tr, n)
			s := trace.Summarize(tr)
			if s.Lost != 0 {
				t.Fatalf("trace lost %d events on a tiny run", s.Lost)
			}
			if s.Chunk.Count == 0 {
				t.Fatal("no chunk spans recorded")
			}
		})
	}
}

func TestTracedStealEventsMatchStats(t *testing.T) {
	const workers, n = 4, 1 << 16
	tr := trace.New(workers+1, trace.DefaultCapacity)
	p := NewTraced(workers, StrategyStealing, SplitTopology(workers, 2), tr)
	defer p.Close()
	for iter := 0; iter < 8; iter++ {
		p.ForChunks(n, exec.Fine, func(_, lo, hi int) {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			_ = s
		})
	}
	st := p.Stats()
	var local, remote int
	for ti := 0; ti < tr.Tracks(); ti++ {
		for _, e := range tr.Events(ti) {
			if e.Kind != trace.KindSteal {
				continue
			}
			if v := e.A0; v < -1 || int(v) >= workers {
				t.Fatalf("steal event has victim %d outside [-1, %d)", v, workers)
			}
			if e.A1 == trace.TierRemote {
				remote++
			} else {
				local++
			}
		}
	}
	if uint64(local) != st.LocalSteals || uint64(remote) != st.RemoteSteals {
		t.Fatalf("trace steals local=%d remote=%d, counters local=%d remote=%d",
			local, remote, st.LocalSteals, st.RemoteSteals)
	}
}

func TestNewTracedRejectsShortTracer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTraced accepted a tracer with too few tracks")
		}
	}()
	NewTraced(4, StrategyStealing, Topology{}, trace.New(2, 64))
}

func TestTracedPoolNilTracerMatchesUntraced(t *testing.T) {
	p := NewTraced(2, StrategyStealing, Topology{}, nil)
	defer p.Close()
	sum := 0
	var mu sync.Mutex
	p.ForChunks(1000, exec.Auto, func(_, lo, hi int) {
		mu.Lock()
		sum += hi - lo
		mu.Unlock()
	})
	if sum != 1000 {
		t.Fatalf("covered %d, want 1000", sum)
	}
}
