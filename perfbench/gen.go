package main

import (
	"math"

	"pstlbench/internal/flow"
)

// Seeded, program-blind input generation: every input a workload feeds the
// program is a pure function of (--seed, stream id), so the same seed gives
// byte-identical inputs and the program never sees the seed itself.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// newRNG derives an independent stream from the run seed and a stream id.
func newRNG(seed, stream uint64) *rng { return &rng{s: mix64(seed ^ mix64(stream+1))} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// valueRange bounds kernel input values. Inputs are integer-valued floats
// below 2^20, so sums and prefix sums up to 2^24 elements stay below 2^53
// and are exact in any reduction order: parallel and sequential results
// must be bit-identical.
const valueRange = 1 << 20

// kernelInput returns n integer-valued float64s in [0, valueRange).
func kernelInput(seed, stream uint64, n int) []float64 {
	r := newRNG(seed, stream)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.next() % valueRange)
	}
	return out
}

// digest is a position-sensitive hash of a float64 slice: equal digests
// mean equal contents in equal order (up to hash collisions).
func digest(xs []float64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 0x100000001b3
	}
	return h
}

// jobDraw is one svc request: its tenant and kernel.
type jobDraw struct {
	tenant, kernel string
}

// svcJobN is the problem size of every svc job.
const svcJobN = 1 << 16

// jobMix is one client's request sequence. The seed shuffles the order
// inside blocks holding each (tenant, kernel) pair once, so every seed
// offers the same mix and a run's work does not vary with the seed.
type jobMix struct {
	r     *rng
	block []jobDraw
}

func newJobMix(seed uint64, client int) *jobMix {
	return &jobMix{r: newRNG(seed, 1000+uint64(client))}
}

func (m *jobMix) next() jobDraw {
	if len(m.block) == 0 {
		m.block = []jobDraw{{"a", "reduce"}, {"a", "sort"}, {"b", "reduce"}, {"b", "sort"}}
		for i := len(m.block) - 1; i > 0; i-- {
			j := int(m.r.next() % uint64(i+1))
			m.block[i], m.block[j] = m.block[j], m.block[i]
		}
	}
	d := m.block[0]
	m.block = m.block[1:]
	return d
}

// streamDef is one stream of the stream-windows workload.
type streamDef struct {
	name, op    string
	size, slide int64 // event-time ns
	words       int
}

// Event time advances 1 µs per event, so a 1 ms window holds ~1000 events.
// Stragglers arrive 2 ms behind their slot, past the 200 µs lateness bound.
const (
	roundEvents = 16384
	traceStepNS = 1000
	jitterNS    = 50_000
	latenessNS  = 200_000
	lateEvery   = 101
	lateByNS    = 2_000_000
)

var streamDefs = []streamDef{
	{name: "wc", op: "wordcount", size: 1_000_000, slide: 1_000_000, words: 128},
	{name: "sum", op: "reduce", size: 1_000_000, slide: 250_000},
}

// roundTrace is stream k's n-event trace for one round.
func roundTrace(seed uint64, round, k, n int) []flow.Event {
	d := streamDefs[k]
	s := mix64(seed^mix64(uint64(round)<<8|uint64(k))) | 1
	return flow.SynthTrace(n, 0, traceStepNS, jitterNS, lateEvery, lateByNS, d.words, s)
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
