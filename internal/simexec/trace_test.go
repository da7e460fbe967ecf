package simexec

import (
	"testing"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/trace"
)

func tracedConfig(threads int, tr *trace.Tracer) Config {
	return Config{
		Machine:  machine.MachA(),
		Backend:  backend.GCCTBB(),
		Workload: wl(backend.OpForEach, 1<<22),
		Threads:  threads,
		Alloc:    allocsim.FirstTouch,
		Tracer:   tr,
	}
}

// coreSpan is a chunk span with the core (track) that ran it.
type coreSpan struct {
	trace.Event
	core int
}

// chunkSpans returns every chunk span of tr's tracks.
func chunkSpans(tr *trace.Tracer) []coreSpan {
	var out []coreSpan
	for c := 0; c < tr.Tracks(); c++ {
		for _, e := range tr.Events(c) {
			if e.Kind == trace.KindChunk {
				out = append(out, coreSpan{e, c})
			}
		}
	}
	return out
}

func TestSimTraceChunkSpansCoverElements(t *testing.T) {
	const threads = 8
	tr := trace.NewVirtual(threads, trace.DefaultCapacity)
	res := Run(tracedConfig(threads, tr))
	if res.Seconds <= 0 {
		t.Fatal("simulated run took no time")
	}
	// Chunk spans must partition [0, N): each element range appears exactly
	// once across the core tracks, with lo < hi.
	covered := int64(0)
	chunks := 0
	for c := 0; c < threads; c++ {
		for _, e := range tr.Events(c) {
			if e.Kind != trace.KindChunk {
				continue
			}
			chunks++
			if e.A0 < 0 || e.A1 <= e.A0 {
				t.Fatalf("chunk span has bad element range [%d, %d)", e.A0, e.A1)
			}
			if e.End < e.Start {
				t.Fatalf("chunk span runs backwards: %+v", e)
			}
			covered += e.A1 - e.A0
		}
	}
	if chunks == 0 {
		t.Fatal("no chunk spans recorded")
	}
	if covered != 1<<22 {
		t.Fatalf("chunk spans cover %d elements, want %d", covered, 1<<22)
	}
	// Spans are stamped in virtual time: the last end must agree with the
	// simulated duration (the clock cursor advanced past it).
	if got, want := tr.Now(), int64(res.Seconds*1e9); got != want {
		t.Fatalf("virtual cursor at %d ns after run, want %d", got, want)
	}
}

func TestSimTraceStealsMatchCounters(t *testing.T) {
	const threads = 8
	tr := trace.NewVirtual(threads, trace.DefaultCapacity)
	res := Run(tracedConfig(threads, tr))
	var local, remote, wakeups int
	for c := 0; c < threads; c++ {
		for _, e := range tr.Events(c) {
			switch e.Kind {
			case trace.KindSteal:
				if e.A1 == trace.TierRemote {
					remote++
				} else {
					local++
				}
				if e.A0 < -1 || e.A0 >= threads {
					t.Fatalf("steal victim %d out of range", e.A0)
				}
			case trace.KindWakeup:
				wakeups++
			}
		}
	}
	if float64(local) != res.Counters.LocalSteals || float64(remote) != res.Counters.RemoteSteals {
		t.Fatalf("trace steals local=%d remote=%d, counters local=%v remote=%v",
			local, remote, res.Counters.LocalSteals, res.Counters.RemoteSteals)
	}
	if float64(wakeups) != res.Counters.Wakeups {
		t.Fatalf("trace wakeups %d, counters %v", wakeups, res.Counters.Wakeups)
	}
}

func TestSimTraceInvocationsStackOnOneTimeline(t *testing.T) {
	const threads = 4
	tr := trace.NewVirtual(threads, trace.DefaultCapacity)
	cfg := tracedConfig(threads, tr)
	r1 := Run(cfg)
	mark := tr.Now()
	r2 := Run(cfg)
	if got, want := tr.Now(), int64(r1.Seconds*1e9)+int64(r2.Seconds*1e9); got != want {
		t.Fatalf("cursor %d after two runs, want %d", got, want)
	}
	// Every event of the second run must start at or after the first run's
	// end: the invocations do not overlap on the timeline.
	secondRun := 0
	for c := 0; c < threads; c++ {
		for _, e := range tr.Events(c) {
			if e.Start >= mark {
				secondRun++
			}
		}
	}
	if secondRun == 0 {
		t.Fatal("second invocation left no events after the first run's end")
	}
}

func TestSimTraceRejectsWrongTracer(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("wall tracer", func() {
		Run(tracedConfig(4, trace.New(8, 64)))
	})
	mustPanic("too few tracks", func() {
		Run(tracedConfig(8, trace.NewVirtual(2, 64)))
	})
}
