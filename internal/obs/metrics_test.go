package obs

import (
	"math"
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var w *Windows
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	w.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || w.Snapshot().Count != 0 {
		t.Fatal("nil instruments returned non-zero values")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry write: %v", err)
	}
	r.Remove("tenant", "a")
}

func TestCounterMonotone(t *testing.T) {
	c := NewRegistry().Counter("c", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "h", "tenant", "a")
	b := r.Counter("jobs_total", "h", "tenant", "b")
	a2 := r.Counter("jobs_total", "h", "tenant", "a")
	if a == b {
		t.Fatal("different labels shared an instrument")
	}
	if a != a2 {
		t.Fatal("same (name, labels) returned a new instrument")
	}
}

// TestRegistryRemove drops one label set from every family: its series
// leave the exposition, a family left empty goes with them, other label
// sets and unlabeled series stay, an old handle keeps working unexposed,
// and registering the label set again starts fresh instruments.
func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	oldA := r.Counter("jobs_total", "h", "tenant", "a")
	oldA.Add(7)
	r.Counter("jobs_total", "h", "tenant", "b").Add(2)
	r.Counter("jobs_total", "h").Add(1)
	r.Histogram("lat_seconds", "h", nil, "tenant", "a").Observe(0.1)
	r.GaugeFunc("depth", "h", func() float64 { return 3 }, "tenant", "a", "shard", "0")
	r.CounterFunc("only_a_total", "h", func() float64 { return 4 }, "tenant", "a")
	render := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	r.Remove("tenant", "a")
	out := render()
	for _, gone := range []string{`jobs_total{tenant="a"}`, `lat_seconds_count{tenant="a"}`, "only_a_total"} {
		if strings.Contains(out, gone) {
			t.Fatalf("%s still exposed after Remove:\n%s", gone, out)
		}
	}
	for _, kept := range []string{`jobs_total{tenant="b"} 2`, "jobs_total 1", `depth{shard="0",tenant="a"} 3`} {
		if !strings.Contains(out, kept) {
			t.Fatalf("%s lost by Remove:\n%s", kept, out)
		}
	}
	oldA.Inc()
	if oldA.Value() != 8 {
		t.Fatalf("old handle reads %d, want 8", oldA.Value())
	}
	if a := r.Counter("jobs_total", "h", "tenant", "a"); a == oldA || a.Value() != 0 {
		t.Fatal("re-registration returned the removed counter")
	}
	r.CounterFunc("only_a_total", "h", func() float64 { return 5 }, "tenant", "a")
	if out := render(); !strings.Contains(out, `jobs_total{tenant="a"} 0`) ||
		!strings.Contains(out, "# TYPE only_a_total counter\n"+`only_a_total{tenant="a"} 5`) {
		t.Fatalf("re-registered series not exposed:\n%s", out)
	}
	r.Remove("tenant", "nobody")
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("m", "h")
}

// TestPrometheusExposition checks the rendered text against the 0.0.4
// format line by line: HELP/TYPE headers, sorted labels, cumulative
// histogram buckets ending in +Inf == count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("pstld_jobs_total", "Jobs.", "tenant", "acme").Add(3)
	r.Gauge("pstld_load", "Load.").Set(0.5)
	r.GaugeFunc("pstld_depth", "Depth.", func() float64 { return 7 })
	h := r.Histogram("pstld_lat", "Latency.", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99) // overflow bucket

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pstld_jobs_total Jobs.\n",
		"# TYPE pstld_jobs_total counter\n",
		`pstld_jobs_total{tenant="acme"} 3` + "\n",
		"# TYPE pstld_load gauge\n",
		"pstld_load 0.5\n",
		"pstld_depth 7\n",
		"# TYPE pstld_lat histogram\n",
		`pstld_lat_bucket{le="1"} 1` + "\n",
		`pstld_lat_bucket{le="2"} 2` + "\n",
		`pstld_lat_bucket{le="4"} 2` + "\n",
		`pstld_lat_bucket{le="+Inf"} 3` + "\n",
		"pstld_lat_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Every non-comment line must be `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestLabelSortingAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h", "zeta", "z", "alpha", `a"\`+"\n").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `m{alpha="a\"\\\n",zeta="z"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("labels not sorted/escaped: got\n%s\nwant line %q", b.String(), want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within bucket (1,2]", q)
	}
	h.Observe(100) // overflow clamps to the largest finite bound
	if q := h.Snapshot().Quantile(0.999); q != 8 {
		t.Fatalf("overflow quantile = %v, want clamp to 8", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramFracAbove(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3) // (2,4] bucket, above t=2
	}
	got := h.Snapshot().FracAbove(2)
	if math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("FracAbove(2) = %v, want 0.10", got)
	}
	if f := h.Snapshot().FracAbove(1000); f != 0 {
		t.Fatalf("FracAbove above all buckets = %v, want 0", f)
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.25)
	h.Observe(0.5)
	if s := h.Sum(); math.Abs(s-0.75) > 1e-6 {
		t.Fatalf("sum = %v, want 0.75", s)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	if len(LatencyBuckets) != 24 || len(SizeBuckets) != 16 {
		t.Fatal("default ladders changed size")
	}
}

func TestHistogramFuncRendered(t *testing.T) {
	r := NewRegistry()
	r.HistogramFunc("w", "windowed", func() HistSnapshot {
		return HistSnapshot{Bounds: []float64{1}, Counts: []int64{2, 1}, Count: 3, Sum: 4}
	})
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		"# TYPE w histogram\n",
		`w_bucket{le="1"} 2` + "\n",
		`w_bucket{le="+Inf"} 3` + "\n",
		"w_sum 4\n",
		"w_count 3\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %q in\n%s", want, b.String())
		}
	}
}
