// Package report renders experiment results as aligned text tables, ASCII
// charts (log-scaled x axis, like the paper's figures), and CSV.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title string
	// Measured marks rows read on the host (wall clocks, live servers)
	// rather than computed by the simulator: they differ from run to run,
	// so the heading carries a "[measured]" label.
	Measured bool
	Headers  []string
	Rows     [][]string
}

// Heading returns the title line, labelled when the table is measured.
func (t *Table) Heading() string {
	if t.Measured {
		return "[measured] " + t.Title
	}
	return t.Title
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if h := t.Heading(); h != "" {
		b.WriteString(h + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i := range t.Headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(esc(c))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is one line of a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is an ASCII line chart. The x axis is plotted in log2 (the paper's
// problem-size and thread-count axes); the y axis is linear by default or
// log10 when LogY is set (the paper's execution-time axes).
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	LogY   bool
	Width  int // plot columns (default 64)
	Height int // plot rows (default 16)
	Series []Series
}

// markers label the series in drawing order.
const markers = "*+ox#@%&"

// String renders the chart.
func (c *Chart) String() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}
	// Gather bounds.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x := math.Log2(s.X[i])
			y := s.Y[i]
			if c.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title + "\n")
	}
	if math.IsInf(xmin, 1) {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range c.Series {
		mark := markers[si%len(markers)]
		var prevCol, prevRow int
		hasPrev := false
		for i := range s.X {
			x := math.Log2(s.X[i])
			y := s.Y[i]
			if c.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			col := int((x - xmin) / (xmax - xmin) * float64(w-1))
			row := h - 1 - int((y-ymin)/(ymax-ymin)*float64(h-1))
			if hasPrev {
				drawLine(grid, prevCol, prevRow, col, row, '.')
			}
			grid[row][col] = mark
			prevCol, prevRow, hasPrev = col, row, true
		}
	}
	// y-axis labels on 4 rows.
	for r := 0; r < h; r++ {
		frac := float64(h-1-r) / float64(h-1)
		val := ymin + frac*(ymax-ymin)
		label := ""
		if r == 0 || r == h-1 || r == h/2 {
			if c.LogY {
				// Log-y charts plot times; label with time units.
				label = fmtShort(math.Pow(10, val))
			} else {
				label = fmt.Sprintf("%.3g", val)
			}
		}
		fmt.Fprintf(&b, "%10s |%s\n", label, string(grid[r]))
	}
	b.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", w) + "\n")
	// x ticks: 2^k labels at the edges and middle.
	lo, mid, hi := xmin, (xmin+xmax)/2, xmax
	tick := func(v float64) string { return fmt.Sprintf("2^%.3g", v) }
	pad := strings.Repeat(" ", 12)
	axis := []byte(pad + strings.Repeat(" ", w))
	place := func(v float64, s string, rightAlign bool) {
		col := 12 + int((v-xmin)/(xmax-xmin)*float64(w-1))
		if rightAlign {
			col -= len(s) - 1
		}
		if col < 0 {
			col = 0
		}
		for i := 0; i < len(s) && col+i < len(axis); i++ {
			axis[col+i] = s[i]
		}
	}
	place(lo, tick(lo), false)
	place(mid, tick(mid), false)
	place(hi, tick(hi), true)
	b.WriteString(strings.TrimRight(string(axis), " ") + "\n")
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%12sx: %s   y: %s\n", "", c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "%12s%c = %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// drawLine draws a faint connector between two points (Bresenham), not
// overwriting series markers.
func drawLine(grid [][]byte, x0, y0, x1, y1 int, ch byte) {
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := sign(x1-x0), sign(y1-y0)
	err := dx + dy
	for {
		if grid[y0][x0] == ' ' {
			grid[y0][x0] = ch
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// fmtShort formats a value compactly for axis labels.
func fmtShort(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	case av >= 1e-3:
		return fmt.Sprintf("%.2gms", v*1e3)
	case av >= 1e-6:
		return fmt.Sprintf("%.2gus", v*1e6)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2gns", v*1e9)
	}
}
