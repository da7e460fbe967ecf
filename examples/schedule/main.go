// Schedule: visualize the simulated task schedule of one benchmark
// invocation as a per-core Gantt chart — e.g. the wave structure of HPX's
// central queue versus TBB's stealing, or the merge rounds of a parallel
// sort.
//
//	go run ./examples/schedule
package main

import (
	"fmt"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
)

// gantt simulates one invocation and prints its per-core Gantt chart. The
// title is built from the highest phase index in the trace, so a title that
// counts phases follows the model.
func gantt(title func(lastPhase int) string, m *machine.Machine, b *backend.Backend, op backend.Op, n int64, threads int) {
	r := simexec.Run(simexec.Config{
		Machine: m, Backend: b,
		Workload: skeleton.Workload{Op: op, N: n, ElemBytes: 8, Kit: 1, HitFrac: 0.6},
		Threads:  threads, Alloc: allocsim.FirstTouch,
		Trace: true,
	})
	rows := make([]report.GanttRow, threads)
	for c := range rows {
		rows[c].Label = fmt.Sprintf("core %2d", c)
	}
	last := 0
	for _, s := range r.Trace {
		last = max(last, s.Phase)
		mark := byte('0' + byte(s.Phase)%10)
		if s.Truncated {
			mark = 'x'
		}
		rows[s.Core].Spans = append(rows[s.Core].Spans, report.Span{Start: s.Start, End: s.End, Mark: mark})
	}
	g := report.Gantt{
		Title: fmt.Sprintf("%s — %s, %s, n=%d, %d threads (%d task spans, %s total)",
			title(last), b.ID, op, n, threads, len(r.Trace), fmtDur(r.Seconds)),
		Rows: rows,
	}
	fmt.Println(g.String())
}

// label is a title that does not depend on the trace.
func label(s string) func(int) string { return func(int) string { return s } }

func fmtDur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fus", s*1e6)
	}
}

func main() {
	m := machine.MachA()
	// Digits mark the phase of each span; 'x' marks tasks truncated by
	// find's cancellation.
	gantt(func(last int) string {
		return fmt.Sprintf("parallel sort: leaf phase (0) + merge rounds (1..%d)", last)
	}, m, backend.GCCTBB(), backend.OpSort, 1<<24, 8)
	gantt(label("two-phase scan: reduce pass (0) + rescan pass (1)"),
		m, backend.GCCTBB(), backend.OpInclusiveScan, 1<<24, 8)
	gantt(label("early-exit find: cancellation truncates the losers"),
		m, backend.GCCTBB(), backend.OpFind, 1<<24, 8)
	gantt(label("HPX central queue: serialized task starts"),
		m, backend.GCCHPX(), backend.OpForEach, 1<<20, 8)
}
