package report

import (
	"strings"
	"testing"

	"pstlbench/internal/trace"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"Name", "Value"},
	}
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "12345")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Fatalf("title line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") || !strings.Contains(lines[1], "Value") {
		t.Fatalf("header line: %q", lines[1])
	}
	// All data lines share the header's width.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("rows not aligned: %q vs %q", lines[3], lines[4])
	}
}

func TestMeasuredTableHeadingIsLabelled(t *testing.T) {
	tb := &Table{Title: "drain", Measured: true, Headers: []string{"metric", "value"}}
	if got := strings.SplitN(tb.String(), "\n", 2)[0]; got != "[measured] drain" {
		t.Fatalf("heading %q", got)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := &Table{Headers: []string{"A", "B", "C"}}
	tb.AddRow("only-one")
	out := tb.String()
	if !strings.Contains(out, "only-one") {
		t.Fatal("short row dropped")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{Headers: []string{"name", "note"}}
	tb.AddRow("a,b", `say "hi"`)
	csv := tb.CSV()
	want := "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestChartRendersSeriesAndLegend(t *testing.T) {
	c := &Chart{
		Title:  "speedup",
		XLabel: "threads", YLabel: "speedup",
		Series: []Series{
			{Name: "ideal", X: []float64{1, 2, 4, 8}, Y: []float64{1, 2, 4, 8}},
			{Name: "real", X: []float64{1, 2, 4, 8}, Y: []float64{1, 1.8, 3, 4}},
		},
	}
	out := c.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "* = ideal") || !strings.Contains(out, "+ = real") {
		t.Fatalf("chart missing parts:\n%s", out)
	}
	if !strings.Contains(out, "2^0") || !strings.Contains(out, "2^3") {
		t.Fatalf("chart missing log-2 x ticks:\n%s", out)
	}
	// Markers must appear in the plot area.
	if strings.Count(out, "*") < 2 || strings.Count(out, "+") < 2 {
		t.Fatalf("markers missing:\n%s", out)
	}
}

func TestChartLogY(t *testing.T) {
	c := &Chart{
		LogY: true,
		Series: []Series{
			{Name: "t", X: []float64{8, 1 << 20}, Y: []float64{1e-6, 1}},
		},
	}
	out := c.String()
	if !strings.Contains(out, "1.0") { // top label 10^0
		t.Fatalf("log-y labels missing:\n%s", out)
	}
	// Non-positive values must not panic in log mode.
	c.Series = append(c.Series, Series{Name: "zero", X: []float64{8}, Y: []float64{0}})
	_ = c.String()
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if !strings.Contains(c.String(), "(no data)") {
		t.Fatal("empty chart should say so")
	}
}

func TestChartSinglePoint(t *testing.T) {
	c := &Chart{Series: []Series{{Name: "p", X: []float64{4}, Y: []float64{2}}}}
	out := c.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}

func TestFmtShort(t *testing.T) {
	cases := map[float64]string{
		150:   "150",
		2.5:   "2.5",
		0.004: "4ms",
		3e-6:  "3us",
		5e-9:  "5ns",
		0:     "0",
	}
	for v, want := range cases {
		if got := fmtShort(v); got != want {
			t.Errorf("fmtShort(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	g := Gantt{
		Title: "sched",
		Rows: []GanttRow{
			{Label: "core 0", Spans: []Span{{Start: 0, End: 0.5}, {Start: 0.6, End: 1.0, Mark: '1'}}},
			{Label: "core 1", Spans: []Span{{Start: 0.2, End: 0.4, Mark: 'x'}}},
		},
	}
	out := g.String()
	if !strings.Contains(out, "sched") || !strings.Contains(out, "core 0") {
		t.Fatalf("missing parts:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	row0 := lines[1]
	if !strings.Contains(row0, "#") || !strings.Contains(row0, "1") {
		t.Fatalf("row 0 missing marks: %q", row0)
	}
	if !strings.Contains(lines[2], "x") {
		t.Fatalf("row 1 missing truncation mark: %q", lines[2])
	}
	// Idle time renders as dots.
	if !strings.Contains(lines[2], ".") {
		t.Fatalf("row 1 missing idle dots: %q", lines[2])
	}
	empty := Gantt{Rows: []GanttRow{{Label: "idle"}}}
	if !strings.Contains(empty.String(), "(no spans)") {
		t.Fatal("empty gantt should say so")
	}
}

func TestTraceTimeline(t *testing.T) {
	tr := trace.New(2, 256)
	tr.SetLabel(0, "worker 0")
	tr.SetLabel(1, "worker 1")
	ms := int64(1e6)
	b0, b1 := tr.Buf(0), tr.Buf(1)
	b0.Span(trace.KindChunk, 0, 5*ms, 0, 100)
	b0.Span(trace.KindChunk, 6*ms, 10*ms, 100, 200)
	b1.Instant(trace.KindSteal, 1*ms, 0, trace.TierRemote)
	b1.Span(trace.KindChunk, 2*ms, 9*ms, 200, 300)
	b1.Span(trace.KindPark, 9*ms, 10*ms, 0, 0)
	s := trace.Summarize(tr)
	tracks := [][]trace.Event{tr.Events(0), tr.Events(1)}
	out := TraceTimeline(tracks, tr.Labels(), s, 40)
	for _, want := range []string{"worker 0", "worker 1", "#", "s", "p", "chunks", "steals(rem)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lost") {
		t.Fatalf("timeline reports loss without overflow:\n%s", out)
	}
}

func TestTraceTimelineEmpty(t *testing.T) {
	out := TraceTimeline(nil, nil, nil, 40)
	if !strings.Contains(out, "no spans") {
		t.Fatalf("empty timeline output: %q", out)
	}
}
