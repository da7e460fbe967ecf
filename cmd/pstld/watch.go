package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pstlbench/internal/report"
	"pstlbench/internal/serve"
	"pstlbench/internal/shard"
)

// runWatch is the live dashboard: it polls a running pstld's /stats and
// redraws a terminal frame every interval. It works against both shapes —
// a single server and the sharded router (detected by the "shards" field)
// — and needs only the public HTTP surface, so it can watch any pstld it
// can reach.
func runWatch(base string, interval time.Duration, frames int) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; frames <= 0 || i < frames; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		body, err := fetchStats(client, base+"/stats")
		if err != nil {
			fatal("watch %s: %v", base, err)
		}
		frame, err := renderFrame(base, body)
		if err != nil {
			fatal("watch %s: %v", base, err)
		}
		// Home the cursor and clear to end of screen: flicker-free refresh.
		fmt.Fprint(os.Stdout, "\x1b[H\x1b[2J"+frame)
	}
}

func fetchStats(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// renderFrame builds one dashboard frame from a /stats body.
func renderFrame(base string, body []byte) (string, error) {
	var probe struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return "", fmt.Errorf("bad /stats body: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pstld %s  %s\n\n", base, time.Now().Format("15:04:05"))
	if probe.Shards > 0 {
		var st shard.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return "", err
		}
		renderRouter(&b, st)
	} else {
		var st serve.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return "", err
		}
		renderServer(&b, "", st)
	}
	return b.String(), nil
}

func renderRouter(b *strings.Builder, st shard.Stats) {
	fmt.Fprintf(b, "router: shards=%d sched=%s joblog=%v accepted=%d completed=%d rejected=%d\n",
		st.Shards, st.Discipline, st.Joblog, st.Accepted, st.Completed, st.Rejected)
	fmt.Fprintf(b, "        spills=%d migrations=%d replayed=%d recovered=%d backlog=%d\n\n",
		st.Spills, st.Migrations, st.Replayed, st.Recovered, st.Backlog)
	t := &report.Table{Headers: []string{"Shard", "Load", "", "Queued", "Running", "Completed"}}
	for _, ss := range st.PerShard {
		t.AddRow(fmt.Sprintf("%d", ss.Shard),
			fmt.Sprintf("%.2f", ss.Load), loadBar(ss.Load, 20),
			fmt.Sprintf("%d", ss.Queued), fmt.Sprintf("%d", ss.Running),
			fmt.Sprintf("%d", ss.Completed))
	}
	b.WriteString(t.String())
	for _, ss := range st.PerShard {
		if len(ss.Tenants) > 0 {
			b.WriteString("\n")
			renderServer(b, fmt.Sprintf("shard %d ", ss.Shard), ss.Stats)
		}
	}
}

func renderServer(b *strings.Builder, prefix string, st serve.Stats) {
	fmt.Fprintf(b, "%ssched=%s workers=%d queued=%d running=%d load=%.2f %s\n",
		prefix, st.Discipline, st.Workers, st.Queued, st.Running, st.Load, loadBar(st.Load, 20))
	fmt.Fprintf(b, "%saccepted=%d completed=%d canceled=%d rejected=%d expired=%d\n",
		strings.Repeat(" ", len(prefix)), st.Accepted, st.Completed, st.Canceled, st.Rejected, st.Expired)
	if len(st.Tenants) == 0 {
		return
	}
	win := "window"
	if st.WindowSeconds > 0 {
		win = fmt.Sprintf("last %.0fs", st.WindowSeconds)
	}
	t := &report.Table{Headers: []string{"Tenant", "Done", "Rej",
		"p50", "p99", "p50 (" + win + ")", "p99 (" + win + ")", "Burn"}}
	for _, ts := range st.Tenants {
		burn := "-"
		if ts.SLOSeconds > 0 {
			burn = fmt.Sprintf("%.2f", ts.BurnRate)
		}
		wp50, wp99 := "-", "-"
		if ts.WindowJobs > 0 {
			wp50 = fmt.Sprintf("%.3g s", ts.WindowP50Seconds)
			wp99 = fmt.Sprintf("%.3g s", ts.WindowP99Seconds)
		}
		t.AddRow(ts.Tenant, fmt.Sprintf("%d", ts.Completed), fmt.Sprintf("%d", ts.Rejected),
			fmt.Sprintf("%.3g s", ts.P50Seconds), fmt.Sprintf("%.3g s", ts.P99Seconds),
			wp50, wp99, burn)
	}
	b.WriteString(t.String())
}

// loadBar renders a fixed-width ASCII gauge for a 0..1+ load signal.
func loadBar(load float64, width int) string {
	fill := int(load * float64(width))
	if fill < 0 {
		fill = 0
	}
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}
