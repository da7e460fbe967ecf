// Package harness is the measurement engine of the suite — the counterpart
// of Google Benchmark in pSTL-Bench. It provides:
//
//   - State: the per-run handle a benchmark body iterates with
//     (for state.Next() { ... }), with Range arguments, bytes throughput
//     and modeled-traffic accounting, and manual per-iteration timing — the
//     equivalent of pSTL-Bench's WRAP_TIMING macro, which times exactly
//     the STL call and excludes setup such as reshuffling before sort;
//   - adaptive iteration-count selection against a minimum measuring time
//     (--benchmark_min_time in the paper's setup, 5 s there);
//   - a Suite with registration, regexp filtering, and deterministic
//     ordering;
//   - per-call latency statistics over the measured attempt's manual
//     timings (Result.Latency), and modeled hardware counters per
//     iteration in the style of a Likwid Marker region.
//
// Manual timing also lets the simulator drive the same machinery: a
// benchmark body can run a simulated invocation and report its virtual
// duration via SetIterationTime, so native and simulated measurements flow
// through one pipeline.
package harness

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"time"

	"pstlbench/internal/counters"
	"pstlbench/internal/stats"
	"pstlbench/internal/trace"
	"pstlbench/internal/tune"
)

// State is the per-benchmark-run state handed to the benchmark body.
type State struct {
	name   string
	args   []int64
	target int

	iter        int
	started     bool
	startTime   time.Time
	elapsed     time.Duration
	manual      float64
	manualMode  bool
	manualIter  int // iteration of the last SetIterationTime call
	manualSeen  bool
	lat         latency
	bytes       int64
	traffic     int64
	ctr         counters.Set
	ctrRecorded bool
	ctrIter     int // iteration of the last RecordCounters call

	tracer *trace.Tracer
	tbuf   *trace.Buf // harness marker track

	// Adaptive-grain auto-wiring (State.Tune): one tune.Observation per
	// iteration flows to the suite's Tuner at each Next() boundary.
	tuner         *tune.Tuner
	tuneSched     func() counters.Set
	tuneOn        bool
	tuneKey       tune.Key
	tuneWall      time.Time
	tuneManual    float64
	tuneCtr       counters.Set
	tuneSchedPrev counters.Set
}

// Range returns the i-th range argument of the benchmark instance, like
// benchmark::State::range(i).
func (s *State) Range(i int) int64 {
	if i < 0 || i >= len(s.args) {
		panic(fmt.Sprintf("harness: benchmark %s has no range(%d)", s.name, i))
	}
	return s.args[i]
}

// Next advances the measurement loop; the body runs while it returns true.
// Timing starts at the first call.
func (s *State) Next() bool {
	if !s.started {
		s.started = true
		s.startTime = time.Now()
		if s.tuneOn {
			s.tuneWall = s.startTime
		}
		if s.tbuf != nil && s.target > 0 {
			s.tbuf.Instant(trace.KindIteration, s.tracer.Now(), 0, 0)
		}
		return s.target > 0
	}
	if s.iter++; s.iter < s.target {
		s.tuneFlush()
		if s.tbuf != nil {
			s.tbuf.Instant(trace.KindIteration, s.tracer.Now(), int64(s.iter), 0)
		}
		return true
	}
	s.elapsed += time.Since(s.startTime)
	s.tuneFlush()
	return false
}

// Tune declares that the benchmark's parallel loop is tuned under key k.
// When the suite runs with a Tuner, the harness then feeds it one
// tune.Observation per iteration at every Next() boundary: the iteration's
// duration (manual when the body uses SetIterationTime, wall-clock
// otherwise) merged with the scheduler-counter deltas from RecordCounters
// and from the suite's TuneSched snapshot hook. Call it once, before the
// measurement loop; without a suite Tuner it is a no-op.
func (s *State) Tune(k tune.Key) {
	if s.tuner == nil {
		return
	}
	s.tuneOn = true
	s.tuneKey = k
	s.tuneWall = time.Now()
	s.tuneManual = s.manual
	s.tuneCtr = s.ctr
	if s.tuneSched != nil {
		s.tuneSchedPrev = s.tuneSched()
	}
}

// tuneFlush attributes everything since the previous iteration boundary to
// one observation and hands it to the tuner.
func (s *State) tuneFlush() {
	if !s.tuneOn {
		return
	}
	now := time.Now()
	var secs float64
	if s.manualMode {
		secs = s.manual - s.tuneManual
	} else {
		secs = now.Sub(s.tuneWall).Seconds()
	}
	delta := s.ctr.Sub(s.tuneCtr)
	if s.tuneSched != nil {
		cur := s.tuneSched()
		delta.Add(cur.Sub(s.tuneSchedPrev))
		s.tuneSchedPrev = cur
	}
	obs := tune.FromCounters(delta)
	obs.Seconds = secs
	s.tuner.Observe(s.tuneKey, obs)
	s.tuneWall = now
	s.tuneManual = s.manual
	s.tuneCtr = s.ctr
}

// Iterations returns the number of iterations of the current run.
func (s *State) Iterations() int { return s.target }

// SetIterationTime reports a manually measured duration for the current
// iteration (WRAP_TIMING / benchmark::State::SetIterationTime). Once
// called, the benchmark's reported time comes exclusively from manual
// measurements.
//
// The manual-timing contract: call it at most once per iteration, strictly
// inside the measurement loop (after the first Next has returned true), and
// pass exactly the duration of the timed call — the harness sums the
// per-iteration values and never mixes them with wall-clock timing. Calling
// it before the loop starts panics: there is no current iteration to
// attribute the time to.
func (s *State) SetIterationTime(seconds float64) {
	if !s.started {
		panic(fmt.Sprintf("harness: %s called SetIterationTime before the first Next(); "+
			"manual timing must be reported from inside the measurement loop", s.name))
	}
	if s.manualSeen && s.manualIter == s.iter {
		panic(fmt.Sprintf("harness: %s called SetIterationTime twice in iteration %d; "+
			"report exactly one duration per iteration", s.name, s.iter))
	}
	s.manualSeen = true
	s.manualIter = s.iter
	s.manualMode = true
	s.manual += seconds
	s.lat.add(seconds, s.target)
}

// SetBytesProcessed declares the total bytes processed across all
// iterations, enabling throughput reporting.
func (s *State) SetBytesProcessed(n int64) { s.bytes = n }

// SetTrafficBytes declares the modeled DRAM traffic across all iterations
// (e.g. from skeleton.Chain's bytes per element), reported per call as
// Result.TrafficBytes. Unlike SetBytesProcessed this is a model, not a
// measurement — it lets reports place predicted memory traffic next to
// measured time.
func (s *State) SetTrafficBytes(n int64) { s.traffic = n }

// RecordCounters records the modeled hardware counters of the current
// iteration, in the style of a Likwid marker region around the timed call.
// Like SetIterationTime, it may be called at most once per iteration —
// a second call in the same iteration panics, since it would silently
// double-count the region.
func (s *State) RecordCounters(c counters.Set) {
	if s.ctrRecorded && s.ctrIter == s.iter {
		panic(fmt.Sprintf("harness: %s recorded counters twice in iteration %d; "+
			"accumulate within the body and record one set per iteration", s.name, s.iter))
	}
	s.ctrRecorded = true
	s.ctrIter = s.iter
	s.ctr.Add(c)
}

// Benchmark is one registered benchmark.
type Benchmark struct {
	// Name identifies the benchmark, e.g. "reduce/GCC-TBB".
	Name string
	// Fn is the benchmark body.
	Fn func(*State)
	// Args is the list of argument tuples; the benchmark runs once per
	// tuple (like Google Benchmark's ->Args). Empty means one run with
	// no arguments.
	Args [][]int64
	// MinTime is the minimum accumulated measuring time per instance
	// (default defaultMinTime).
	MinTime time.Duration
	// MaxIterations caps the adaptive iteration search (default 1e9, as
	// in Google Benchmark).
	MaxIterations int
}

const (
	defaultMinTime  = 100 * time.Millisecond
	defaultMaxIters = 1_000_000_000
)

// Result is the measurement of one benchmark instance.
type Result struct {
	Name       string
	Args       []int64
	Iterations int
	// Seconds is the average time per iteration.
	Seconds float64
	// BytesPerSec is the throughput if SetBytesProcessed was used.
	BytesPerSec float64
	// TrafficBytes is the modeled DRAM traffic per call, if SetTrafficBytes
	// was used.
	TrafficBytes int64
	// Counters holds accumulated modeled counters, if recorded.
	Counters    counters.Set
	HasCounters bool
	// Latency is the per-call Seconds distribution over the final
	// (measured) attempt's SetIterationTime calls; zero-valued under
	// wall-clock timing.
	Latency LatencyStats
	// Trace summarizes the scheduler events of the final (measured)
	// attempt, when the suite runs with a Tracer: per-worker chunk-latency
	// distributions, steal-to-work latency, and idle-gap histograms.
	Trace *trace.Summary
}

// FullName returns the name with argument suffixes ("reduce/1048576").
func (r Result) FullName() string { return instanceName(r.Name, r.Args) }

func instanceName(name string, args []int64) string {
	for _, a := range args {
		name += fmt.Sprintf("/%d", a)
	}
	return name
}

// Suite is a registry of benchmarks.
type Suite struct {
	benches []Benchmark

	// Tracer, when non-nil, receives region and iteration markers on its
	// last track (the harness track) and is summarized per instance into
	// Result.Trace. The same tracer is shared with the execution plane
	// (native pool or simulator), so markers and scheduler events land on
	// one timeline.
	Tracer *trace.Tracer

	// Tuner, when non-nil, receives one tune.Observation per iteration of
	// every benchmark that declared a tuning key with State.Tune, and the
	// trace summary of each measured attempt via ObserveSummary.
	Tuner *tune.Tuner
	// TuneSched, when non-nil, snapshots live scheduler counters (e.g. a
	// native pool's Stats().Counters()); the harness differences
	// consecutive snapshots to attribute steals, parks, and spins to each
	// iteration's observation.
	TuneSched func() counters.Set
}

// Register adds a benchmark to the suite.
func (su *Suite) Register(b Benchmark) {
	if b.Name == "" || b.Fn == nil {
		panic("harness: benchmark needs a name and a body")
	}
	su.benches = append(su.benches, b)
}

// Run executes every benchmark whose instance name matches filter (nil
// matches all) and returns the results in deterministic order.
func (su *Suite) Run(filter *regexp.Regexp) []Result {
	var results []Result
	for _, b := range su.benches {
		argSets := b.Args
		if len(argSets) == 0 {
			argSets = [][]int64{nil}
		}
		for _, args := range argSets {
			name := instanceName(b.Name, args)
			if filter != nil && !filter.MatchString(name) {
				continue
			}
			results = append(results, su.runOne(b, args))
		}
	}
	return results
}

// markerBuf returns the harness marker track (the tracer's last track).
func (su *Suite) markerBuf() *trace.Buf {
	if su.Tracer == nil {
		return nil
	}
	return su.Tracer.Buf(su.Tracer.Tracks() - 1)
}

// runOne measures a single benchmark instance with the adaptive
// iteration-count loop: run with n iterations, and while the accumulated
// measuring time is below MinTime, grow n geometrically based on the
// observed per-iteration time.
func (su *Suite) runOne(b Benchmark, args []int64) Result {
	minTime := b.MinTime
	if minTime <= 0 {
		minTime = defaultMinTime
	}
	maxIters := b.MaxIterations
	if maxIters <= 0 {
		maxIters = defaultMaxIters
	}
	n := 1
	for {
		st, from, to := su.attempt(b, args, n)
		measured := st.measuredSeconds()
		if measured >= minTime.Seconds() || n >= maxIters {
			return su.result(b, args, st, from, to)
		}
		// Predict the iteration count reaching minTime, with head-room,
		// bounded to a 10x growth per attempt (Google Benchmark's rule).
		next := n * 10
		if measured > 0 {
			predicted := int(float64(n)*minTime.Seconds()/measured*1.4) + 1
			if predicted < next {
				next = predicted
			}
		}
		if next <= n {
			next = n + 1
		}
		if next > maxIters {
			next = maxIters
		}
		n = next
	}
}

// RunIterations measures one instance of b at args with exactly iters
// iterations and no adaptive search, for a driver that picks the count
// itself — a testing.B loop running b.N iterations.
func (su *Suite) RunIterations(b Benchmark, args []int64, iters int) Result {
	st, from, to := su.attempt(b, args, iters)
	return su.result(b, args, st, from, to)
}

// attempt runs the body once with n iterations and returns its state and,
// when tracing, the marker window [from, to] the attempt covered.
func (su *Suite) attempt(b Benchmark, args []int64, n int) (st *State, from, to int64) {
	name := instanceName(b.Name, args)
	tb := su.markerBuf()
	st = &State{name: name, args: args, target: n,
		tracer: su.Tracer, tbuf: tb,
		tuner: su.Tuner, tuneSched: su.TuneSched}
	var region int64
	if tb != nil {
		region = su.Tracer.Intern(name)
		from = su.Tracer.Now()
	}
	b.Fn(st)
	if tb != nil {
		to = su.Tracer.Now()
		tb.Span(trace.KindRegion, from, to, region, int64(n))
	}
	return st, from, to
}

// result turns the measured attempt into the instance's Result.
func (su *Suite) result(b Benchmark, args []int64, st *State, windowFrom, windowTo int64) Result {
	res := Result{
		Name:       b.Name,
		Args:       args,
		Iterations: st.target,
		Counters:   st.ctr,
		Latency:    st.lat.stats(),
	}
	res.HasCounters = st.ctrRecorded
	if su.markerBuf() != nil {
		// Summarize only the final attempt — the one the timing comes from.
		res.Trace = trace.SummarizeWindow(su.Tracer, windowFrom, windowTo)
		if su.Tuner != nil && st.tuneOn && res.Trace != nil {
			// Feed the attempt's idle-gap mass back so the tuner's next
			// counter-only observations carry the trace signal too.
			su.Tuner.ObserveSummary(st.tuneKey, res.Trace)
		}
	}
	total := st.measuredSeconds()
	if st.target > 0 {
		res.Seconds = total / float64(st.target)
		if res.Latency.Calls > 0 {
			// The rounded sum of the manual times, divided, can land an ulp
			// outside the exact extremes (a row of identical calls read
			// above its max); the time per call lies between them.
			res.Seconds = min(max(res.Seconds, res.Latency.Min), res.Latency.Max)
		}
		res.TrafficBytes = st.traffic / int64(st.target)
	}
	if total > 0 && st.bytes > 0 {
		res.BytesPerSec = float64(st.bytes) / total
	}
	return res
}

// LatencyStats summarizes the per-call seconds one attempt reported through
// SetIterationTime. Calls reporting a non-positive duration are not counted.
type LatencyStats struct {
	Calls int
	// Min, Max and Mean are exact over every counted call.
	Min, Max, Mean float64
	// StdDev is the population standard deviation over every counted call.
	StdDev float64
	// P50 and P99 are quantiles over every ceil(iterations/quantileSamples)-th
	// counted call, so they are exact up to quantileSamples iterations.
	P50, P99 float64
}

// quantileSamples bounds the calls kept per attempt for P50 and P99; at
// 2048 the p99 rests on about 20 order statistics.
const quantileSamples = 2048

// latency accumulates one attempt's timed calls.
type latency struct {
	n        int
	min, max float64
	// mean and m2 are Welford's running mean and sum of squared
	// deviations: constant samples give an m2 of exactly 0, where the
	// sum-of-squares identity leaves cancellation error.
	mean, m2 float64
	stride   int
	samples  []float64
}

// add records one call's seconds; target is the attempt's iteration count.
func (l *latency) add(seconds float64, target int) {
	if seconds <= 0 {
		return
	}
	if l.n == 0 {
		l.min, l.max = seconds, seconds
		l.stride = max(1, (target+quantileSamples-1)/quantileSamples)
		l.samples = make([]float64, 0, max(1, (target+l.stride-1)/l.stride))
	}
	if l.n%l.stride == 0 {
		l.samples = append(l.samples, seconds)
	}
	l.min = min(l.min, seconds)
	l.max = max(l.max, seconds)
	l.n++
	d := seconds - l.mean
	l.mean += d / float64(l.n)
	l.m2 += d * (seconds - l.mean)
}

func (l *latency) stats() LatencyStats {
	if l.n == 0 {
		return LatencyStats{}
	}
	slices.Sort(l.samples)
	return LatencyStats{
		Calls:  l.n,
		Min:    l.min,
		Max:    l.max,
		Mean:   l.mean,
		StdDev: math.Sqrt(l.m2 / float64(l.n)),
		P50:    stats.PercentileSorted(l.samples, 0.50),
		P99:    stats.PercentileSorted(l.samples, 0.99),
	}
}

func (s *State) measuredSeconds() float64 {
	if s.manualMode {
		return s.manual
	}
	return s.elapsed.Seconds()
}

// SortResults orders results by full instance name, for stable reporting.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].FullName() < rs[j].FullName() })
}
