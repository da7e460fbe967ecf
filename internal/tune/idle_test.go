package tune

import (
	"testing"

	"pstlbench/internal/trace"
)

func TestIdleFrac(t *testing.T) {
	s := &trace.Summary{
		Start: 0, End: 2,
		Tracks: []trace.TrackStats{
			{Chunks: 4, BusySeconds: 1.0},
			{Chunks: 0}, // idle track: excluded from the idle mass
		},
	}
	if got := idleFrac(s); got != 0.5 {
		t.Fatalf("idleFrac = %v, want 0.5", got)
	}
	// Zero-span summaries must not divide by zero.
	if got := idleFrac(&trace.Summary{}); got != 0 {
		t.Fatalf("zero-span idleFrac = %v, want 0", got)
	}
}
