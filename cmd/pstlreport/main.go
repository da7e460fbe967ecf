// Command pstlreport regenerates the paper's tables and figures from the
// simulated machines:
//
//	pstlreport                    # every experiment, full scale
//	pstlreport -exp fig2,tab5     # selected experiments
//	pstlreport -scale 6           # shrink 2^30 workloads to 2^24
//	pstlreport -list              # list experiment IDs
//
// Output is plain text: aligned tables and ASCII charts (log-2 x axes,
// matching the paper's presentation). Tables read on this host rather
// than simulated (wall clocks, live servers in the ext-* experiments) are
// headed "[measured]", and notes computed from them print as
// "note (measured):"; everything else is identical from run to run.
//
// A third mode summarizes a Chrome trace-event file written by
// pstlbench --trace:
//
//	pstlreport -trace out.json    # ASCII timeline + per-track statistics
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"pstlbench/internal/experiments"
	"pstlbench/internal/report"
	"pstlbench/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment IDs (fig1..fig9, tab2..tab7, ext-*, abl-*) or 'all'")
		scale     = flag.Int("scale", 0, "problem-size exponent reduction: N uses 2^(30-N) elements")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		csv       = flag.Bool("csv", false, "emit the experiments' tables as CSV (charts are omitted)")
		traceFile = flag.String("trace", "", "summarize a Chrome trace-event file written by pstlbench --trace")
		width     = flag.Int("width", 72, "timeline width in columns (-trace mode)")
	)
	flag.Parse()

	if *traceFile != "" {
		summarizeTrace(*traceFile, *width)
		return
	}

	if *list {
		for _, e := range experiments.Index() {
			fmt.Println(e.ID)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale}
	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Index() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run := experiments.ByID(id)
		if run == nil {
			fmt.Fprintf(os.Stderr, "pstlreport: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		r := run(cfg)
		if *csv {
			for _, t := range r.Tables {
				fmt.Printf("# %s: %s\n", r.ID, t.Heading())
				fmt.Print(t.CSV())
			}
			continue
		}
		fmt.Println(r)
	}
}

// summarizeTrace loads a Chrome trace-event file, validates its shape, and
// prints the terminal timeline and per-track distributions.
func summarizeTrace(path string, width int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pstlreport: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()
	ct, err := trace.ReadChrome(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pstlreport: reading %s: %v\n", path, err)
		os.Exit(2)
	}
	if err := ct.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pstlreport: invalid trace %s: %v\n", path, err)
		os.Exit(2)
	}
	tracks, labels := ct.Tracks()
	s := trace.SummarizeEvents(tracks, labels, ct.Virtual(), math.MinInt64, math.MaxInt64)
	s.Lost = ct.LostEvents()
	fmt.Print(report.TraceTimeline(tracks, labels, s, width))
}
