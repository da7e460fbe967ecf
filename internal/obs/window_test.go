package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock steps window epochs deterministically.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64              { return c.ns.Load() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func testWindows(width time.Duration, count int, clk *fakeClock) *Windows {
	return NewWindows(WindowConfig{Width: width, Count: count, Now: clk.now})
}

// TestWindowsLoadStep is the satellite guarantee: a latency step shows up
// in the windowed view within two windows, while the pre-step traffic is
// still inside the horizon — current-load visibility without waiting for
// cumulative history to dilute.
func TestWindowsLoadStep(t *testing.T) {
	clk := &fakeClock{}
	w := testWindows(time.Second, 8, clk)

	for i := 0; i < 100; i++ {
		w.Observe(0.0005) // healthy traffic: p99 in the lowest bucket
	}
	before := w.Snapshot().Quantile(0.99)
	if before > 0.001 {
		t.Fatalf("pre-step p99 = %v, want <= 0.001", before)
	}

	// The step: latency jumps 1000x. Two windows later it must dominate
	// the merged view even though the fast traffic is still in-horizon.
	clk.advance(time.Second)
	for i := 0; i < 300; i++ {
		w.Observe(0.5)
	}
	clk.advance(time.Second)
	snap := w.Snapshot()
	if snap.Count != 400 {
		t.Fatalf("window count = %d, want 400 (both windows in horizon)", snap.Count)
	}
	after := snap.Quantile(0.99)
	if after < 0.1 {
		t.Fatalf("post-step p99 = %v, want >= 0.1 within two windows", after)
	}
}

// TestWindowsExpiry: traffic older than the horizon vanishes, and a slot
// reused after wraparound does not resurrect its previous window's counts.
func TestWindowsExpiry(t *testing.T) {
	clk := &fakeClock{}
	w := testWindows(time.Second, 4, clk)
	for i := 0; i < 10; i++ {
		w.Observe(0.5)
	}
	if got := w.Snapshot().Count; got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	clk.advance(3 * time.Second)
	if got := w.Snapshot().Count; got != 10 {
		t.Fatalf("count at horizon edge = %d, want 10", got)
	}
	clk.advance(time.Second)
	if got := w.Snapshot().Count; got != 0 {
		t.Fatalf("count past horizon = %d, want 0", got)
	}
	// Reuse the wrapped slot: only the new observation may appear.
	w.Observe(0.5)
	if got := w.Snapshot().Count; got != 1 {
		t.Fatalf("count after slot reuse = %d, want 1", got)
	}
}

func TestWindowsSpan(t *testing.T) {
	clk := &fakeClock{}
	w := testWindows(5*time.Second, 16, clk)
	if got := w.Span(); got != 80*time.Second {
		t.Fatalf("span = %v, want 80s", got)
	}
}

func TestSLOBurnRate(t *testing.T) {
	clk := &fakeClock{}
	w := testWindows(time.Second, 4, clk)
	slo := SLO{Objective: 0.1, Target: 0.99}

	if br := slo.BurnRate(w.Snapshot()); br != 0 {
		t.Fatalf("empty burn rate = %v, want 0", br)
	}
	for i := 0; i < 100; i++ {
		w.Observe(0.0005) // all within objective
	}
	if br := slo.BurnRate(w.Snapshot()); br != 0 {
		t.Fatalf("healthy burn rate = %v, want 0", br)
	}
	for i := 0; i < 100; i++ {
		w.Observe(5) // all violating
	}
	// Half the traffic is bad against a 1% budget: burn ~= 50.
	br := slo.BurnRate(w.Snapshot())
	if br < 40 || br > 60 {
		t.Fatalf("violating burn rate = %v, want ~50", br)
	}
	if br := (SLO{}).BurnRate(w.Snapshot()); br != 0 {
		t.Fatalf("unset SLO burn rate = %v, want 0", br)
	}
}
