package trace

import "testing"

// TestRingOccupancyAccessors covers a small ring's occupancy when it
// overflows: drops counted, occupancy pinned at full.
func TestRingOccupancyAccessors(t *testing.T) {
	tr := New(2, 4)
	b := tr.Buf(0)
	if b.Len() != 0 {
		t.Fatalf("fresh ring len = %d, want 0", b.Len())
	}
	for i := int64(0); i < 10; i++ {
		b.Span(KindChunk, i, i+1, 0, 0)
	}
	if got := b.Len(); got != 4 {
		t.Fatalf("overflowed ring len = %d, want 4", got)
	}
	if got := tr.Lost(); got != 6 {
		t.Fatalf("lost = %d, want 6", got)
	}
	if got := tr.TotalEvents(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
}

func TestEpochUnixNano(t *testing.T) {
	if got := New(1, 4).EpochUnixNano(); got == 0 {
		t.Fatal("wall tracer epoch = 0, want its start time")
	}
	if got := NewVirtual(1, 4).EpochUnixNano(); got != 0 {
		t.Fatalf("virtual tracer epoch = %d, want 0", got)
	}
	var nilT *Tracer
	if got := nilT.EpochUnixNano(); got != 0 {
		t.Fatalf("nil tracer epoch = %d, want 0", got)
	}
}
