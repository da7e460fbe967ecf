// Package harness is the measurement engine of the suite — the counterpart
// of Google Benchmark in pSTL-Bench. It provides:
//
//   - State: the per-run handle a benchmark body iterates with
//     (for state.Next() { ... }), with Range arguments, bytes/items
//     throughput accounting, and manual per-iteration timing — the
//     equivalent of pSTL-Bench's WRAP_TIMING macro, which times exactly
//     the STL call and excludes setup such as reshuffling before sort;
//   - adaptive iteration-count selection against a minimum measuring time
//     (--benchmark_min_time in the paper's setup, 5 s there);
//   - a Suite with registration, regexp filtering, and deterministic
//     ordering;
//   - hardware-counter regions in the style of the Likwid Marker API,
//     recorded into a counters.Registry.
//
// Manual timing also lets the simulator drive the same machinery: a
// benchmark body can run a simulated invocation and report its virtual
// duration via SetIterationTime, so native and simulated measurements flow
// through one pipeline.
package harness

import (
	"fmt"
	"regexp"
	"sort"
	"time"

	"pstlbench/internal/counters"
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
	bytes       int64
	items       int64
	traffic     int64
	ctr         counters.Set
	ctrRecorded bool
	ctrIter     int // iteration of the last RecordCounters call

	tracer   *trace.Tracer
	tbuf     *trace.Buf // harness marker track
	registry *counters.Registry

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

// Name returns the full benchmark name including arguments.
func (s *State) Name() string { return s.name }

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

// PauseTiming excludes the following code from the measured wall time.
func (s *State) PauseTiming() {
	s.elapsed += time.Since(s.startTime)
}

// ResumeTiming resumes the wall-time measurement after PauseTiming.
func (s *State) ResumeTiming() {
	s.startTime = time.Now()
}

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
	if s.registry != nil {
		s.registry.Record(s.name, counters.Set{Seconds: seconds})
	}
}

// SetBytesProcessed declares the total bytes processed across all
// iterations, enabling throughput reporting.
func (s *State) SetBytesProcessed(n int64) { s.bytes = n }

// SetItemsProcessed declares the total items processed across all
// iterations.
func (s *State) SetItemsProcessed(n int64) { s.items = n }

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
	// ItemsPerSec is the throughput if SetItemsProcessed was used.
	ItemsPerSec float64
	// TrafficBytes is the modeled DRAM traffic per call, if SetTrafficBytes
	// was used.
	TrafficBytes int64
	// Counters holds accumulated modeled counters, if recorded.
	Counters    counters.Set
	HasCounters bool
	// Latency is the per-call Seconds distribution (min/max/mean/stddev and
	// p50/p99) over every SetIterationTime sample, when the suite runs with
	// a Registry; zero-valued otherwise or under wall-clock timing.
	Latency counters.RegionStats
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
	// Registry, when non-nil, receives one Seconds sample per
	// SetIterationTime call under the instance's full name — the region
	// names in the registry match the KindRegion markers in the trace.
	Registry *counters.Registry

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

// Names returns the registered benchmark names in registration order.
func (su *Suite) Names() []string {
	out := make([]string, len(su.benches))
	for i, b := range su.benches {
		out[i] = b.Name
	}
	return out
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
	name := instanceName(b.Name, args)
	tb := su.markerBuf()
	var region int64
	if tb != nil {
		region = su.Tracer.Intern(name)
	}
	n := 1
	var st *State
	var windowFrom, windowTo int64
	for {
		st = &State{name: name, args: args, target: n,
			tracer: su.Tracer, tbuf: tb, registry: su.Registry,
			tuner: su.Tuner, tuneSched: su.TuneSched}
		var rstart int64
		if tb != nil {
			rstart = su.Tracer.Now()
		}
		b.Fn(st)
		if tb != nil {
			windowFrom, windowTo = rstart, su.Tracer.Now()
			tb.Span(trace.KindRegion, rstart, windowTo, region, int64(n))
		}
		measured := st.measuredSeconds()
		if measured >= minTime.Seconds() || n >= maxIters {
			break
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
	res := Result{
		Name:       b.Name,
		Args:       args,
		Iterations: st.target,
		Counters:   st.ctr,
	}
	res.HasCounters = st.ctrRecorded
	if su.Registry != nil {
		res.Latency = su.Registry.Stats(name)
	}
	if tb != nil {
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
		res.TrafficBytes = st.traffic / int64(st.target)
	}
	if total > 0 {
		if st.bytes > 0 {
			res.BytesPerSec = float64(st.bytes) / total
		}
		if st.items > 0 {
			res.ItemsPerSec = float64(st.items) / total
		}
	}
	return res
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
