package counters

import "testing"

func TestAddAndScale(t *testing.T) {
	a := Set{Instructions: 10, FPScalar: 2, FP128: 1, FP256: 1, DRAMBytes: 100, Seconds: 1}
	b := Set{Instructions: 5, FPScalar: 1, DRAMBytes: 50, Seconds: 0.5}
	a.Add(b)
	if a.Instructions != 15 || a.DRAMBytes != 150 || a.Seconds != 1.5 {
		t.Fatalf("Add: %+v", a)
	}
	s := a.Scale(2)
	if s.Instructions != 30 || s.FP128 != 2 || a.Instructions != 15 {
		t.Fatalf("Scale: %+v (orig %+v)", s, a)
	}
}

func TestFlopsAccounting(t *testing.T) {
	s := Set{FPScalar: 10, FP128: 5, FP256: 2}
	// 10 + 5*2 + 2*4 = 28 double-precision operations.
	if got := s.Flops(); got != 28 {
		t.Fatalf("Flops = %v", got)
	}
	s.Seconds = 2
	if got, want := s.GFlopsPerSec(), 28.0/2/1e9; got != want {
		t.Fatalf("GFlopsPerSec = %v, want %v", got, want)
	}
}

func TestRatesZeroTime(t *testing.T) {
	s := Set{FPScalar: 100, DRAMBytes: 1 << 30}
	if s.GFlopsPerSec() != 0 || s.BandwidthGiBs() != 0 {
		t.Fatal("zero-time rates should be 0")
	}
	if s.DataVolumeGiB() != 1 {
		t.Fatalf("DataVolumeGiB = %v", s.DataVolumeGiB())
	}
}

func TestBandwidth(t *testing.T) {
	s := Set{DRAMBytes: 2 << 30, Seconds: 2}
	if got := s.BandwidthGiBs(); got != 1 {
		t.Fatalf("BandwidthGiBs = %v", got)
	}
}

func TestSIFormatting(t *testing.T) {
	cases := map[float64]string{
		1.72e12: "1.72T",
		107e9:   "107G",
		26e9:    "26G",
		1.33e6:  "1.33M",
		12.8e3:  "12.8K",
		42:      "42",
	}
	for v, want := range cases {
		if got := SI(v); got != want {
			t.Errorf("SI(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestSub(t *testing.T) {
	a := Set{Instructions: 100, Seconds: 2, LocalSteals: 10, RemoteSteals: 4, Parks: 3, Wakeups: 2, EmptySpins: 7, DRAMBytes: 64}
	b := Set{Instructions: 40, Seconds: 0.5, LocalSteals: 6, RemoteSteals: 1, Parks: 1, Wakeups: 2, EmptySpins: 5, DRAMBytes: 32}
	d := a.Sub(b)
	if d.Instructions != 60 || d.Seconds != 1.5 || d.DRAMBytes != 32 {
		t.Fatalf("Sub core fields: %+v", d)
	}
	if d.LocalSteals != 4 || d.RemoteSteals != 3 || d.Parks != 2 || d.Wakeups != 0 || d.EmptySpins != 2 {
		t.Fatalf("Sub sched fields: %+v", d)
	}
	// Sub is the inverse of Add over a snapshot pair.
	b.Add(d)
	if b != a {
		t.Fatalf("b + (a-b) = %+v, want %+v", b, a)
	}
}
