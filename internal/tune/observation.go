package tune

import (
	"pstlbench/internal/counters"
	"pstlbench/internal/trace"
)

// Observation is the telemetry of one loop invocation, the controller's
// input. FromCounters builds one from a counters.Set delta — the native
// pool's SchedStats or the simulator's modeled scheduler counters —
// carrying the steal/park/spin mix. The trace signal, the idle-gap mass
// that drives refinement, reaches the tuner separately through
// Tuner.ObserveSummary.
type Observation struct {
	// Seconds is the invocation's duration (wall or virtual). Observations
	// with Seconds <= 0 are discarded by Observe.
	Seconds float64

	// Scheduler counters attributed to this invocation.
	LocalSteals  float64
	RemoteSteals float64
	Parks        float64
	Wakeups      float64
	EmptySpins   float64
}

// FromCounters builds an Observation from a counter-set delta. The set's
// Seconds field becomes the observation duration (leave it zero and fill
// Seconds separately when timing comes from elsewhere).
func FromCounters(c counters.Set) Observation {
	return Observation{
		Seconds:      c.Seconds,
		LocalSteals:  c.LocalSteals,
		RemoteSteals: c.RemoteSteals,
		Parks:        c.Parks,
		Wakeups:      c.Wakeups,
		EmptySpins:   c.EmptySpins,
	}
}

// idleFrac computes the idle-gap mass of a summary: one minus the busy
// fraction of the window, averaged over the tracks that executed at least
// one chunk. Empty summaries and zero-span windows yield 0.
func idleFrac(s *trace.Summary) float64 {
	span := s.End - s.Start
	if span <= 0 {
		return 0
	}
	var busy float64
	active := 0
	for _, ts := range s.Tracks {
		if ts.Chunks == 0 {
			continue
		}
		busy += ts.BusySeconds
		active++
	}
	if active == 0 {
		return 0
	}
	f := 1 - busy/(span*float64(active))
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// ObserveSummary enriches the controller state of k with the idle-gap mass
// of a trace summary without advancing the climb: every later Observe for
// k sees the trace's idle fraction until the next summary replaces it.
// This is the tuner's one trace path; the harness calls it with the
// summary of each instance's final attempt.
func (t *Tuner) ObserveSummary(k Key, s *trace.Summary) {
	if s == nil || k.N <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.lookup(k)
	st.pendingIdleFrac = idleFrac(s)
	st.hasPending = true
}
