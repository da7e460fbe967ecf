package experiments

import (
	"strings"
	"testing"
)

// TestAttributionNote feeds attributionNote the controlled pair's p99
// values from two ext-obs runs at -scale 4: at GOMAXPROCS=2 the execute
// columns stay within 2x, at GOMAXPROCS=1 the cold probe's execute span
// also counts the time it waited for the one CPU the hot shard's sorts
// held. Queue-wait explains the total gap in both, so the verdict passes.
func TestAttributionNote(t *testing.T) {
	const pass = "queue-wait explains the hot-shard probe's p99 regression"
	for _, c := range []struct {
		name                   string
		ht, hq, hx, ct, cq, cx float64
		want, not              string
	}{
		{"GOMAXPROCS=2", 0.442, 0.442, 0.000112, 0.000316, 0.000257, 0.000177,
			"within 2x: the kernel did not move", "more than 2x apart"},
		{"GOMAXPROCS=1", 0.45, 0.45, 0.000105, 0.0128, 0.0127, 0.0122,
			"more than 2x apart: execute also counts the time a started probe waits for a CPU", "did not move"},
	} {
		note := attributionNote(c.ht, c.hq, c.hx, c.ct, c.cq, c.cx)
		if !strings.HasPrefix(note, pass) || !strings.Contains(note, "start-to-finish wall time, CPU wait included") {
			t.Errorf("%s: verdict or execute label missing: %s", c.name, note)
		}
		if !strings.Contains(note, c.want) || strings.Contains(note, c.not) {
			t.Errorf("%s: want %q and not %q in: %s", c.name, c.want, c.not, note)
		}
	}
	// A gap the execute column carries fails the >= 80% queue-wait verdict.
	if note := attributionNote(0.1, 0.02, 0.08, 0.01, 0.005, 0.005); !strings.HasPrefix(note, "ATTRIBUTION UNCLEAR") {
		t.Errorf("execute-driven gap passed the verdict: %s", note)
	}
}
