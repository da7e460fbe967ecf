package flow

import (
	"fmt"
	"math"
	"time"
)

// Shape names a load-generator arrival pattern. The instantaneous rate is
// the sustained rate times Factor, so every shape has a burst phase the
// backpressure experiments lean on.
type Shape string

const (
	// ShapeSteady arrives at the sustained rate.
	ShapeSteady Shape = "steady"
	// ShapeBursty alternates: the first quarter of each period runs at
	// Burst times the sustained rate, the rest near idle — same mean.
	ShapeBursty Shape = "bursty"
	// ShapeDiurnal is a sinusoid between the sustained rate and Burst
	// times it — the day/night curve, compressed to Period.
	ShapeDiurnal Shape = "diurnal"
	// ShapeStep runs one period at the sustained rate, then steps to
	// Burst times it for good — the capacity-cliff probe.
	ShapeStep Shape = "step"
)

// Shapes lists the generator shapes in stable order.
func Shapes() []Shape {
	return []Shape{ShapeSteady, ShapeBursty, ShapeDiurnal, ShapeStep}
}

// ParseShape maps a flag value to a Shape.
func ParseShape(s string) (Shape, bool) {
	for _, sh := range Shapes() {
		if string(sh) == s {
			return sh, true
		}
	}
	return ShapeSteady, false
}

// Factor returns the instantaneous rate multiplier at elapsed time t into
// the pattern, for a pattern period and burst amplitude.
func (sh Shape) Factor(t, period time.Duration, burst float64) float64 {
	if period <= 0 {
		period = time.Second
	}
	if burst < 1 {
		burst = 1
	}
	switch sh {
	case ShapeBursty:
		phase := float64(t%period) / float64(period)
		if phase < 0.25 {
			return burst
		}
		// Balance the burst so the mean stays ~1x sustained.
		rest := (1 - burst*0.25) / 0.75
		if rest < 0.05 {
			rest = 0.05
		}
		return rest
	case ShapeDiurnal:
		phase := float64(t%period) / float64(period)
		return 1 + (burst-1)*(1+math.Sin(2*math.Pi*phase-math.Pi/2))/2
	case ShapeStep:
		if t < period {
			return 1
		}
		return burst
	}
	return 1
}

// GenStats summarizes one Generator.Run.
type GenStats struct {
	// Generated counts events offered to the stream; Accepted, Late, and
	// Paused split them by final push status (a paused event that
	// exhausted its retry budget counts Paused once).
	Generated int64 `json:"generated"`
	Accepted  int64 `json:"accepted"`
	Late      int64 `json:"late"`
	Paused    int64 `json:"paused"`
	// PauseRetries counts retry sleeps taken on PushPaused — the visible
	// cost of the pause backpressure policy at the source.
	PauseRetries int64 `json:"pause_retries"`
}

// Generator is an unbounded wall-clock source: it pushes synthetic events
// at Rate events/second modulated by Shape, with event time = wall time,
// until stopped. Values and keys come from a seeded LCG, so two
// generators with the same seed produce the same value sequence (arrival
// TIMING is wall-clock and not reproducible — use Replay for that).
type Generator struct {
	Stream *Stream
	// Rate is the sustained arrival rate in events/second.
	Rate float64
	// Shape modulates the instantaneous rate (default steady).
	Shape Shape
	// Period is the shape's pattern length (default 1s).
	Period time.Duration
	// Burst is the shape's peak multiplier (default 4).
	Burst float64
	// Seed seeds the value/key LCG (default 1).
	Seed uint64
	// Words is the key dictionary size; 0 generates no keys. The draw is
	// min-of-two-uniforms, so low-index words are ~2x more frequent —
	// a mild skew for the wordcount operator.
	Words int
}

const (
	// pauseRetry is the Generator's sleep after a PushPaused before
	// retrying; pauseBudget bounds retries per event before the event is
	// abandoned as Paused.
	pauseRetry  = 200 * time.Microsecond
	pauseBudget = 50
)

// Run generates until stop is closed and returns the totals. It runs in
// the caller's goroutine; start one per stream.
func (g *Generator) Run(stop <-chan struct{}) GenStats {
	if g.Period <= 0 {
		g.Period = time.Second
	}
	if g.Burst <= 0 {
		g.Burst = 4
	}
	state := g.Seed
	if state == 0 {
		state = 1
	}
	var st GenStats
	const tick = time.Millisecond
	t := time.NewTicker(tick)
	defer t.Stop()
	start := time.Now()
	due := 0.0
	for {
		select {
		case <-stop:
			return st
		case <-t.C:
		}
		elapsed := time.Since(start)
		due += g.Rate * g.Shape.Factor(elapsed, g.Period, g.Burst) * tick.Seconds()
		for ; due >= 1; due-- {
			state = state*6364136223846793005 + 1442695040888963407
			ev := Event{TS: time.Now().UnixNano(), Val: float64(state % 1024)}
			if g.Words > 0 {
				a := int((state >> 16) % uint64(g.Words))
				b := int((state >> 40) % uint64(g.Words))
				if b < a {
					a = b
				}
				ev.Key = fmt.Sprintf("w%03d", a)
			}
			st.Generated++
			switch status := g.Stream.Push(ev); status {
			case PushAccepted:
				st.Accepted++
			case PushLate:
				st.Late++
			case PushPaused:
				// Honor the backpressure: sleep and retry, bounded.
				done := false
				for r := 0; r < pauseBudget; r++ {
					select {
					case <-stop:
						st.Paused++
						return st
					case <-time.After(pauseRetry):
					}
					st.PauseRetries++
					if s := g.Stream.Push(ev); s != PushPaused {
						if s == PushAccepted {
							st.Accepted++
						} else {
							st.Late++
						}
						done = true
						break
					}
				}
				if !done {
					st.Paused++
				}
			}
		}
	}
}

// Replay pushes a finite trace synchronously, in order, and returns the
// per-status counts. Event time comes from the trace, so the run is
// deterministic — the audit oracle replays the same trace through its
// independent model and the counts and checksums must match exactly.
func Replay(s *Stream, trace []Event) (accepted, late, paused int64) {
	for _, ev := range trace {
		switch s.Push(ev) {
		case PushAccepted:
			accepted++
		case PushLate:
			late++
		case PushPaused:
			paused++
		}
	}
	return
}

// SynthTrace builds a deterministic event trace for replay: n events whose
// event times advance stepNS per event with ±jitterNS of out-of-order
// noise, every lateEvery-th event arriving lateByNS behind its slot (the
// straggler population), values small integers, and keys drawn from a
// words-sized dictionary (0 = no keys). The same arguments always yield
// the same trace.
func SynthTrace(n int, startNS, stepNS, jitterNS int64, lateEvery int, lateByNS int64, words int, seed uint64) []Event {
	state := seed
	if state == 0 {
		state = 1
	}
	trace := make([]Event, n)
	for i := range trace {
		state = state*6364136223846793005 + 1442695040888963407
		ts := startNS + int64(i)*stepNS
		if jitterNS > 0 {
			ts += int64(state%uint64(2*jitterNS)) - jitterNS
		}
		if lateEvery > 0 && i%lateEvery == lateEvery-1 {
			ts -= lateByNS
		}
		ev := Event{TS: ts, Val: float64(state >> 32 % 1024)}
		if words > 0 {
			a := int((state >> 16) % uint64(words))
			b := int((state >> 40) % uint64(words))
			if b < a {
				a = b
			}
			ev.Key = fmt.Sprintf("w%03d", a)
		}
		trace[i] = ev
	}
	return trace
}
