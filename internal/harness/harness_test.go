package harness

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"pstlbench/internal/counters"
	"pstlbench/internal/trace"
	"pstlbench/internal/tune"
)

func TestStateLoopRunsTargetIterations(t *testing.T) {
	st := &State{name: "x", target: 7}
	n := 0
	for st.Next() {
		n++
	}
	if n != 7 || st.Iterations() != 7 {
		t.Fatalf("ran %d iterations, want 7", n)
	}
}

func TestStateZeroTarget(t *testing.T) {
	st := &State{name: "x", target: 0}
	for st.Next() {
		t.Fatal("body ran with target 0")
	}
}

func TestRangeArguments(t *testing.T) {
	su := &Suite{}
	var got []int64
	su.Register(Benchmark{
		Name:    "args",
		Args:    [][]int64{{1024, 3}},
		MinTime: time.Microsecond,
		Fn: func(s *State) {
			got = []int64{s.Range(0), s.Range(1)}
			for s.Next() {
			}
		},
	})
	rs := su.Run(nil)
	if len(rs) != 1 || got[0] != 1024 || got[1] != 3 {
		t.Fatalf("args = %v", got)
	}
	if rs[0].FullName() != "args/1024/3" {
		t.Fatalf("FullName = %q", rs[0].FullName())
	}
}

func TestRangePanicsOutOfBounds(t *testing.T) {
	st := &State{name: "x", args: []int64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	st.Range(1)
}

func TestAdaptiveIterationsReachMinTime(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:    "spin",
		MinTime: 20 * time.Millisecond,
		Fn: func(s *State) {
			for s.Next() {
				time.Sleep(50 * time.Microsecond)
			}
		},
	})
	rs := su.Run(nil)
	// Sleep granularity varies wildly across kernels; assert only that
	// the adaptive loop grew the count and filled the time budget.
	if rs[0].Iterations < 2 {
		t.Fatalf("iterations = %d, adaptive loop never grew", rs[0].Iterations)
	}
	if total := rs[0].Seconds * float64(rs[0].Iterations); total < 15e-3 {
		t.Fatalf("total measured %vs, want >= ~20ms", total)
	}
	if rs[0].Seconds < 40e-6 {
		t.Fatalf("per-iteration time %v implausibly low", rs[0].Seconds)
	}
}

func TestManualTimingOverridesWallClock(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:    "manual",
		MinTime: time.Millisecond,
		Fn: func(s *State) {
			for s.Next() {
				// Report 1 virtual second per iteration; wall time ~0.
				s.SetIterationTime(1.0)
			}
		},
	})
	rs := su.Run(nil)
	if rs[0].Seconds < 0.99 || rs[0].Seconds > 1.01 {
		t.Fatalf("manual per-iteration time = %v, want 1s", rs[0].Seconds)
	}
	// Manual mode must converge quickly: 1 virtual second >> MinTime.
	if rs[0].Iterations > 2 {
		t.Fatalf("iterations = %d; manual time should satisfy MinTime immediately", rs[0].Iterations)
	}
}

// TestManualSecondsWithinLatencyRange pins that the time per call lies
// between the exact min and max of the manual times, also for identical
// calls whose rounded sum, divided by the count, lands an ulp above them
// (0.1 over 4096 calls) or below (0.1 over 100).
func TestManualSecondsWithinLatencyRange(t *testing.T) {
	for _, c := range []struct {
		v     float64
		iters int
	}{{3.462234432234432e-05, 10}, {0.1, 100}, {0.1, 4096}, {1.0 / 3, 10000}} {
		su := &Suite{}
		b := Benchmark{Name: "same", Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(c.v)
			}
		}}
		r := su.RunIterations(b, nil, c.iters)
		if l := r.Latency; l.Min != c.v || l.Max != c.v || r.Seconds != c.v {
			t.Errorf("%d calls of %v: Seconds %v, latency range [%v, %v]", c.iters, c.v, r.Seconds, l.Min, l.Max)
		}
	}
}

func TestBytesThroughput(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:    "bw",
		MinTime: time.Nanosecond,
		Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(0.5)
			}
			s.SetBytesProcessed(int64(s.Iterations()) * 100)
		},
	})
	rs := su.Run(nil)
	if rs[0].BytesPerSec < 199 || rs[0].BytesPerSec > 201 {
		t.Fatalf("BytesPerSec = %v, want 200", rs[0].BytesPerSec)
	}
}

func TestTrafficBytesPerCall(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:    "traffic",
		MinTime: time.Nanosecond,
		Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(0.5)
			}
			s.SetTrafficBytes(int64(s.Iterations()) * 1234)
		},
	})
	rs := su.Run(nil)
	if rs[0].TrafficBytes != 1234 {
		t.Fatalf("TrafficBytes = %v, want per-call 1234", rs[0].TrafficBytes)
	}
}

func TestCounterRecording(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:    "ctr",
		MinTime: time.Nanosecond,
		Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(1)
				s.RecordCounters(counters.Set{Instructions: 5, DRAMBytes: 7})
			}
		},
	})
	rs := su.Run(nil)
	if !rs[0].HasCounters {
		t.Fatal("counters not recorded")
	}
	per := rs[0].Counters.Instructions / float64(rs[0].Iterations)
	if per != 5 {
		t.Fatalf("instructions per iteration = %v", per)
	}
}

func TestFilter(t *testing.T) {
	su := &Suite{}
	mk := func(name string) {
		su.Register(Benchmark{Name: name, MinTime: time.Nanosecond, Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(1)
			}
		}})
	}
	mk("find/GCC-TBB")
	mk("find/NVC-OMP")
	mk("sort/GCC-TBB")
	rs := su.Run(regexp.MustCompile(`^find/`))
	if len(rs) != 2 {
		t.Fatalf("filter matched %d benchmarks, want 2", len(rs))
	}
	if rs := su.Run(nil); len(rs) != 3 {
		t.Fatalf("nil filter matched %d benchmarks, want 3", len(rs))
	}
}

func TestMultipleArgSets(t *testing.T) {
	su := &Suite{}
	var seen []int64
	su.Register(Benchmark{
		Name:    "sizes",
		Args:    [][]int64{{8}, {64}, {512}},
		MinTime: time.Nanosecond,
		Fn: func(s *State) {
			seen = append(seen, s.Range(0))
			for s.Next() {
				s.SetIterationTime(1)
			}
		},
	})
	rs := su.Run(nil)
	if len(rs) != 3 || seen[0] != 8 || seen[2] != 512 {
		t.Fatalf("arg sets: results=%d seen=%v", len(rs), seen)
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Suite{}).Register(Benchmark{Name: "nameless"})
}

func TestSortResults(t *testing.T) {
	rs := []Result{{Name: "b"}, {Name: "a", Args: []int64{2}}, {Name: "a", Args: []int64{1}}}
	SortResults(rs)
	if rs[0].FullName() != "a/1" || rs[2].FullName() != "b" {
		t.Fatalf("sorted order: %v %v %v", rs[0].FullName(), rs[1].FullName(), rs[2].FullName())
	}
}

func TestSetIterationTimeBeforeNextPanics(t *testing.T) {
	st := &State{name: "early", target: 3}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetIterationTime before first Next did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "before the first Next") {
			t.Fatalf("panic message %v lacks contract explanation", r)
		}
	}()
	st.SetIterationTime(0.5)
}

func TestSetIterationTimeTwicePerIterationPanics(t *testing.T) {
	st := &State{name: "twice", target: 3}
	st.Next()
	st.SetIterationTime(0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("second SetIterationTime in one iteration did not panic")
		}
	}()
	st.SetIterationTime(0.1)
}

func TestRecordCountersTwicePerIterationPanics(t *testing.T) {
	st := &State{name: "ctr", target: 3}
	st.Next()
	st.RecordCounters(counters.Set{Instructions: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second RecordCounters in one iteration did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "twice in iteration") {
			t.Fatalf("panic message %v lacks contract explanation", r)
		}
	}()
	st.RecordCounters(counters.Set{Instructions: 1})
}

func TestOncePerIterationAcrossIterationsIsFine(t *testing.T) {
	st := &State{name: "ok", target: 5}
	for st.Next() {
		st.SetIterationTime(0.01)
		st.RecordCounters(counters.Set{Instructions: 10})
	}
	if st.ctr.Instructions != 50 {
		t.Fatalf("accumulated %v instructions, want 50", st.ctr.Instructions)
	}
}

func TestSuiteTracerRecordsRegionsAndIterations(t *testing.T) {
	tr := trace.New(1, trace.DefaultCapacity)
	su := &Suite{Tracer: tr}
	su.Register(Benchmark{
		Name:    "traced",
		Args:    [][]int64{{64}},
		MinTime: time.Millisecond,
		Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(0.01)
			}
		},
	})
	rs := su.Run(nil)
	if rs[0].Trace == nil {
		t.Fatal("traced run has nil Result.Trace")
	}
	evs := tr.Events(0)
	var regions, iters int
	for _, e := range evs {
		switch e.Kind {
		case trace.KindRegion:
			regions++
			if tr.NameOf(e.A0) != "traced/64" {
				t.Fatalf("region marker names %q, want traced/64", tr.NameOf(e.A0))
			}
		case trace.KindIteration:
			iters++
		}
	}
	if regions == 0 || iters == 0 {
		t.Fatalf("markers: %d regions, %d iterations", regions, iters)
	}
	if lat := rs[0].Latency; lat.Calls != rs[0].Iterations || lat.Min != 0.01 || lat.Max != 0.01 {
		t.Fatalf("Latency %+v, want %d 10ms samples", lat, rs[0].Iterations)
	}
}

func TestResultTraceSummarizesFinalAttemptOnly(t *testing.T) {
	tr := trace.New(1, trace.DefaultCapacity)
	su := &Suite{Tracer: tr}
	su.Register(Benchmark{
		Name:    "window",
		MinTime: time.Millisecond,
		Fn: func(s *State) {
			for s.Next() {
				s.SetIterationTime(0.01)
			}
		},
	})
	rs := su.Run(nil)
	s := rs[0].Trace
	if s == nil {
		t.Fatal("nil trace summary")
	}
	// The final attempt saw Iterations iteration markers plus nothing else
	// on the harness track inside the window (the region span itself ends
	// at the window edge).
	if s.Events == 0 {
		t.Fatal("summary window captured no events")
	}
	if int(s.Events) > rs[0].Iterations+1 {
		t.Fatalf("window captured %d events for %d iterations; leaked earlier attempts",
			s.Events, rs[0].Iterations)
	}
}

// TestTuneAutoWiring pins the adaptive-grain plumbing: a benchmark that
// declares a tuning key gets exactly one observation per iteration, whose
// duration comes from manual timing and whose scheduler counters merge the
// RecordCounters delta with the TuneSched snapshot delta.
func TestTuneAutoWiring(t *testing.T) {
	tn := tune.New()
	sched := counters.Set{}
	su := &Suite{
		Tuner:     tn,
		TuneSched: func() counters.Set { return sched },
	}
	key := tune.Key{Site: "wired", N: 1 << 12, Workers: 4}
	iters := 0
	su.Register(Benchmark{
		Name:          "wired",
		MaxIterations: 6,
		MinTime:       time.Nanosecond, // one attempt
		Fn: func(st *State) {
			st.Tune(key)
			for st.Next() {
				iters++
				// Live scheduler counters advance during the iteration.
				sched.LocalSteals += 2
				sched.RemoteSteals += 5
				st.SetIterationTime(1e-3)
				st.RecordCounters(counters.Set{Parks: 1})
			}
		},
	})
	su.Run(nil)
	if iters == 0 {
		t.Fatal("benchmark body never ran")
	}
	// Every iteration produced one observation: the tuner's trial counts
	// must sum to the iteration count. The fixed timings never trip the
	// drift watch, which would reset the count.
	total := 0
	for _, e := range tn.Export().Entries {
		if k := (tune.Key{Site: e.Site, N: e.N, Workers: e.Workers}); k != key {
			t.Fatalf("observation landed on key %v, want %v", k, key)
		}
		total += e.Trials
	}
	if total != iters {
		t.Fatalf("tuner recorded %d observations, want one per iteration (%d)", total, iters)
	}
}

// TestTuneWithoutTunerIsNoop: State.Tune must be safe when the suite has
// no tuner.
func TestTuneWithoutTunerIsNoop(t *testing.T) {
	su := &Suite{}
	ran := false
	su.Register(Benchmark{
		Name:          "plain",
		MaxIterations: 2,
		MinTime:       time.Nanosecond,
		Fn: func(st *State) {
			st.Tune(tune.Key{Site: "plain", N: 10, Workers: 1})
			for st.Next() {
				ran = true
			}
		},
	})
	su.Run(nil)
	if !ran {
		t.Fatal("body did not run")
	}
}

// TestTuneObservesWallClockWithoutManualTiming: bodies that never call
// SetIterationTime still produce observations from wall-clock deltas.
func TestTuneObservesWallClockWithoutManualTiming(t *testing.T) {
	tn := tune.New()
	su := &Suite{Tuner: tn}
	key := tune.Key{Site: "wall", N: 1 << 10, Workers: 2}
	su.Register(Benchmark{
		Name:          "wall",
		MaxIterations: 3,
		MinTime:       time.Nanosecond,
		Fn: func(st *State) {
			st.Tune(key)
			for st.Next() {
				time.Sleep(100 * time.Microsecond)
			}
		},
	})
	su.Run(nil)
	if _, _, ok := tn.Best(key); !ok {
		t.Fatal("no wall-clock observations reached the tuner")
	}
}

func TestResultLatencyFromRegistry(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:          "lat",
		MinTime:       100 * time.Millisecond,
		MaxIterations: 100,
		Fn: func(s *State) {
			i := 0.0
			for s.Next() {
				// A virtual ramp 0.01, 0.02, ... s: spread with known order.
				i++
				s.SetIterationTime(i / 100)
			}
		},
	})
	rs := su.Run(nil)
	lat := rs[0].Latency
	if lat.Calls != rs[0].Iterations || lat.Calls < 2 {
		t.Fatalf("Latency.Calls = %d, want %d", lat.Calls, rs[0].Iterations)
	}
	if lat.P50 <= lat.Min || lat.P50 >= lat.P99 || lat.P99 > lat.Max {
		t.Fatalf("quantiles out of order: min=%v p50=%v p99=%v max=%v",
			lat.Min, lat.P50, lat.P99, lat.Max)
	}
	// Under wall-clock timing the field stays zero rather than inventing
	// numbers.
	su2 := &Suite{}
	su2.Register(Benchmark{Name: "wall", MinTime: time.Nanosecond,
		Fn: func(s *State) {
			for s.Next() {
			}
		}})
	if l := su2.Run(nil)[0].Latency; l != (LatencyStats{}) {
		t.Fatalf("Latency populated without manual timing: %+v", l)
	}
}

// TestLatencyCoversMeasuredAttemptOnly: the adaptive loop's earlier
// attempts must not leak into the reported spread.
func TestLatencyCoversMeasuredAttemptOnly(t *testing.T) {
	su := &Suite{}
	su.Register(Benchmark{
		Name:    "attempts",
		MinTime: 2 * time.Second,
		Fn: func(s *State) {
			per := 1e-3
			if s.Iterations() == 1 {
				per = 1 // the first attempt: far above every later call
			}
			for s.Next() {
				s.SetIterationTime(per)
			}
		},
	})
	r := su.Run(nil)[0]
	if r.Iterations == 1 {
		t.Fatal("adaptive loop stopped after the first attempt")
	}
	if r.Latency.Calls != r.Iterations || r.Latency.Max != 1e-3 {
		t.Fatalf("Latency %+v over %d iterations, want %d calls with max 1e-3",
			r.Latency, r.Iterations, r.Iterations)
	}
}

// latencyOf runs body as one RunIterations instance of iters iterations.
func latencyOf(iters int, body func(s *State)) LatencyStats {
	return (&Suite{}).RunIterations(Benchmark{Name: "lat", Fn: body}, nil, iters).Latency
}

func TestLatencySingleSample(t *testing.T) {
	l := latencyOf(1, func(s *State) {
		for s.Next() {
			s.SetIterationTime(0.5)
		}
	})
	if l.Calls != 1 || l.Min != 0.5 || l.Max != 0.5 || l.Mean != 0.5 {
		t.Fatalf("single sample stats %+v, want 0.5 everywhere", l)
	}
	// A single sample has no spread: exactly 0, never NaN.
	if l.StdDev != 0 || math.IsNaN(l.StdDev) {
		t.Fatalf("single-sample stddev = %v, want exactly 0", l.StdDev)
	}
}

func TestLatencyPercentilesSingleSample(t *testing.T) {
	l := latencyOf(1, func(s *State) {
		for s.Next() {
			s.SetIterationTime(0.25)
		}
	})
	if l.P50 != 0.25 || l.P99 != 0.25 {
		t.Fatalf("single-sample quantiles = %v/%v, want 0.25", l.P50, l.P99)
	}
}

func TestLatencyConstantSamples(t *testing.T) {
	// The per-call time of an adaptive simulated row, repeated: the
	// sum-of-squares identity leaves a stddev of ~8.5e-12 here.
	const v = 3.462234432234432e-05
	l := latencyOf(4044, func(s *State) {
		for s.Next() {
			s.SetIterationTime(v)
		}
	})
	if l.Calls != 4044 || l.Min != v || l.Max != v || l.P50 != v || l.P99 != v {
		t.Fatalf("constant sample stats %+v", l)
	}
	if l.StdDev != 0 {
		t.Fatalf("stddev of constant samples = %v, want exactly 0", l.StdDev)
	}
}

// latencyRamp is 1..100 ms, shuffled, plus calls the stats must not count.
func latencyRamp() LatencyStats {
	return latencyOf(102, func(s *State) {
		for s.Next() {
			switch i := s.iter; i {
			case 100:
				s.SetIterationTime(0)
			case 101:
				s.SetIterationTime(-1)
			default:
				s.SetIterationTime(float64((i*37)%100+1) / 1000)
			}
		}
	})
}

func TestLatencyStats(t *testing.T) {
	l := latencyRamp()
	if l.Calls != 100 {
		t.Fatalf("Calls = %d, want 100 (non-positive calls counted)", l.Calls)
	}
	if l.Min != 1e-3 || l.Max != 0.1 || math.Abs(l.Mean-0.0505) > 1e-12 {
		t.Fatalf("min/max/mean = %v/%v/%v", l.Min, l.Max, l.Mean)
	}
	// Population stddev of 1..100 is sqrt((100^2-1)/12).
	if want := math.Sqrt(9999.0/12) / 1000; math.Abs(l.StdDev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", l.StdDev, want)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	l := latencyRamp()
	if l.P50 < 0.049 || l.P50 > 0.052 || l.P99 < 0.098 || l.P99 > 0.100 {
		t.Fatalf("p50/p99 = %v/%v, want ~0.0505/~0.099", l.P50, l.P99)
	}
	if !(l.Min < l.P50 && l.P50 < l.P99 && l.P99 < l.Max) {
		t.Fatalf("quantiles out of order: %+v", l)
	}
}

// TestLatencyBoundedSampling: past quantileSamples calls the quantiles
// come from a stride of the calls, while min, max and mean stay exact.
func TestLatencyBoundedSampling(t *testing.T) {
	const n = 100_000
	const unit = 1.0 / (1 << 20) // keeps the ramp and its mean exact
	l := latencyOf(n, func(s *State) {
		for s.Next() {
			s.SetIterationTime(float64(s.iter+1) * unit)
		}
	})
	if l.Calls != n || l.Min != unit || l.Max != n*unit || l.Mean != (n+1)/2.0*unit {
		t.Fatalf("min/max/mean = %v/%v/%v, want %v/%v/%v",
			l.Min, l.Max, l.Mean, unit, n*unit, (n+1)/2.0*unit)
	}
	stride := (n + quantileSamples - 1) / quantileSamples
	if median := (n + 1) / 2.0 * unit; math.Abs(l.P50-median) > float64(stride)*unit {
		t.Fatalf("p50 = %v, want within %d calls of %v", l.P50, stride, median)
	}
	if !(l.P50 < l.P99 && l.P99 <= l.Max) {
		t.Fatalf("quantiles out of order: %+v", l)
	}
}
