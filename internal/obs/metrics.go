// Package obs is the serving-tier observability layer: a dependency-free
// Prometheus-text-format metrics registry (counters, gauges, fixed-bucket
// histograms with allocation-free atomic updates), per-job lifecycle spans
// that stitch a job's path through router, shard queue, and pool into
// one phase-stamped record, and rolling-window latency histograms with
// SLO burn-rate tracking.
//
// The split of labor with the sibling packages: internal/trace sees the
// scheduler (chunks, steals, parks, per-worker rings); internal/counters
// sees measured regions (the Likwid-marker model of the paper's tables);
// obs sees the *service* — jobs, queues, tenants, shards — and exports all
// three where standard tooling can reach them: a /metrics endpoint any
// Prometheus scraper parses, Chrome-trace JSON where job spans sit above
// the scheduler's chunk spans, and windowed quantiles in /stats that
// reflect current load rather than cumulative-since-boot history.
//
// Every instrument follows the repo's disabled-path idiom: methods on nil
// receivers are no-ops costing one inlined pointer check, so call sites
// stay unconditional and a server built without a Registry pays nothing
// (guarded by BenchmarkMetricsDisabled). Enabled updates are lock-free
// atomics with zero heap allocations (TestMetricUpdatesAllocFree).
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil Counter is disabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil Gauge is disabled.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus an overflow bucket, a total count, and a fixed-point sum.
// Observe is a short bounded scan plus three atomic adds — allocation-free
// and lock-free, cheap enough for per-job and per-fsync call sites. A nil
// Histogram is disabled.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count  atomic.Int64
	// sumFP accumulates the observation sum in 1e-9 fixed point, the finest
	// grain that still gives ~292 years of second-valued observations
	// before int64 overflow; float64 can't be atomically added.
	sumFP atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumFP.Add(int64(v * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumFP.Load()) * 1e-9
}

// Snapshot returns a consistent-enough copy for exposition: per-bucket
// (non-cumulative) counts aligned with Bounds, plus the overflow bucket.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    float64(h.sumFP.Load()) * 1e-9,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time histogram: Counts[i] holds observations
// <= Bounds[i] (exclusive of lower buckets); Counts[len(Bounds)] is the
// overflow (+Inf) bucket. The same shape serves cumulative histograms and
// merged rolling windows.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the containing bucket, Prometheus histogram_quantile style. The
// overflow bucket clamps to the largest finite bound. 0 when empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// FracAbove estimates the fraction of observations strictly above t,
// interpolating within the bucket that straddles it — the SLO bad-event
// fraction.
func (s HistSnapshot) FracAbove(t float64) float64 {
	if s.Count == 0 {
		return 0
	}
	var above float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := math.Inf(1)
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		switch {
		case lo >= t:
			above += float64(c)
		case hi <= t:
			// entirely below: contributes nothing
		case math.IsInf(hi, 1):
			above += float64(c) // overflow bucket straddling t: count it all
		default:
			above += float64(c) * (hi - t) / (hi - lo)
		}
	}
	return above / float64(s.Count)
}

// ExpBuckets returns n exponential bucket upper bounds starting at start,
// each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default latency ladder: 10 µs to ~84 s in
// powers of two — wide enough for fsync stalls and 2^30 sorts alike.
var LatencyBuckets = ExpBuckets(1e-5, 2, 24)

// SizeBuckets is the default count ladder (group-commit size, events per
// window): 1 to 32768 in powers of two.
var SizeBuckets = ExpBuckets(1, 2, 16)

// metric kinds inside a family.
const (
	kindCounter = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
	kindHistogramFunc
)

func kindType(kind int) string {
	switch kind {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// inst is one labeled instrument within a family.
type inst struct {
	labels string // sorted, rendered `k="v",...` (no braces), "" when unlabeled
	c      *Counter
	g      *Gauge
	f      func() float64
	h      *Histogram
	hf     func() HistSnapshot
}

// family is all instruments sharing one metric name.
type family struct {
	name, help string
	kind       int
	insts      []*inst
	byLabels   map[string]*inst
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration takes a lock and runs once per
// (name, labels); the returned instruments update lock-free. All methods
// are nil-safe: a nil Registry hands out nil (disabled) instruments.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// renderLabels validates and renders alternating key, value label pairs
// into the canonical sorted `k="v"` form used as the instrument identity.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q, want key, value pairs", labels))
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+escapeLabel(labels[i+1])+`"`)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookupLocked returns the instrument for (name, labels), creating family
// and instrument as needed; panics when the name is reused with another
// kind. Caller holds r.mu.
func (r *Registry) lookupLocked(name, help string, kind int, labels []string) *inst {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*inst)}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, reused as %s",
			name, kindType(f.kind), kindType(kind)))
	}
	ls := renderLabels(labels)
	in := f.byLabels[ls]
	if in == nil {
		in = &inst{labels: ls}
		f.byLabels[ls] = in
		f.insts = append(f.insts, in)
	}
	return in
}

// Counter registers (or returns the existing) counter under name with the
// given alternating key, value label pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.lookupLocked(name, help, kindCounter, labels)
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.lookupLocked(name, help, kindGauge, labels)
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// CounterFunc registers a pull-time counter: f is called at exposition and
// must be monotone non-decreasing (the registry does not enforce it). Use
// for counts already maintained under a lock elsewhere, so the hot path
// pays nothing extra. Exposition calls f WITHOUT the registry lock held,
// so f may take the locks its producer uses.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, help, kindCounterFunc, labels).f = f
}

// GaugeFunc registers a pull-time gauge evaluated at exposition (without
// the registry lock held).
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, help, kindGaugeFunc, labels).f = f
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.lookupLocked(name, help, kindHistogram, labels)
	if in.h == nil {
		if len(bounds) == 0 {
			bounds = LatencyBuckets
		}
		in.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return in.h
}

// HistogramFunc registers a pull-time histogram: f returns a snapshot at
// exposition (called without the registry lock held). The rolling-window
// latency families use this — the window merge happens per scrape, not per
// observation.
func (r *Registry) HistogramFunc(name, help string, f func() HistSnapshot, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, help, kindHistogramFunc, labels).hf = f
}

// Remove deletes every instrument whose label set is exactly labels, in
// every family, and each family it leaves empty. An instrument handed out
// before keeps working but is no longer exposed; registering the same
// name and labels again starts a fresh one.
func (r *Registry) Remove(labels ...string) {
	if r == nil {
		return
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.fams[:0]
	for _, f := range r.fams {
		if in := f.byLabels[ls]; in != nil {
			delete(f.byLabels, ls)
			f.insts = slices.DeleteFunc(f.insts, func(x *inst) bool { return x == in })
		}
		if len(f.insts) == 0 {
			delete(r.byName, f.name)
			continue
		}
		kept = append(kept, f)
	}
	clear(r.fams[len(kept):])
	r.fams = kept
}

// fnum renders a sample value; Prometheus accepts Go's shortest-form
// floats plus +Inf/-Inf/NaN spellings.
func fnum(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): # HELP and # TYPE lines followed by the samples,
// histograms as cumulative _bucket{le=...} series plus _sum and _count.
// The registry lock covers only the structure snapshot; pull-time closures
// run after it is released, so they may take their producers' locks
// without ordering against lazy registration.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type item struct {
		labels string
		c      *Counter
		g      *Gauge
		f      func() float64
		h      *Histogram
		hf     func() HistSnapshot
	}
	type fam struct {
		name, help string
		kind       int
		items      []item
	}
	r.mu.Lock()
	fams := make([]fam, len(r.fams))
	for fi, f := range r.fams {
		fams[fi] = fam{name: f.name, help: f.help, kind: f.kind, items: make([]item, len(f.insts))}
		for ii, in := range f.insts {
			fams[fi].items[ii] = item{labels: in.labels, c: in.c, g: in.g, f: in.f, h: in.h, hf: in.hf}
		}
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, kindType(f.kind))
		for _, in := range f.items {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, in.labels, float64(in.c.Value()))
			case kindGauge:
				writeSample(&b, f.name, in.labels, in.g.Value())
			case kindCounterFunc, kindGaugeFunc:
				v := 0.0
				if in.f != nil {
					v = in.f()
				}
				writeSample(&b, f.name, in.labels, v)
			case kindHistogram, kindHistogramFunc:
				var s HistSnapshot
				if f.kind == kindHistogram {
					s = in.h.Snapshot()
				} else if in.hf != nil {
					s = in.hf()
				}
				writeHistogram(&b, f.name, in.labels, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" " + fnum(v) + "\n")
}

func writeHistogram(b *strings.Builder, name, labels string, s HistSnapshot) {
	join := func(extra string) string {
		if labels == "" {
			return extra
		}
		return labels + "," + extra
	}
	var cum int64
	for i, bound := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		writeSample(b, name+"_bucket", join(`le="`+fnum(bound)+`"`), float64(cum))
	}
	writeSample(b, name+"_bucket", join(`le="+Inf"`), float64(s.Count))
	writeSample(b, name+"_sum", labels, s.Sum)
	writeSample(b, name+"_count", labels, float64(s.Count))
}
