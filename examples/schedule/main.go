// Schedule: visualize the simulated task schedule of one benchmark
// invocation as a per-core Gantt chart — e.g. the wave structure of HPX's
// central queue versus TBB's stealing, or the merge rounds of a parallel
// sort.
//
//	go run ./examples/schedule
package main

import (
	"fmt"
	"sort"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/trace"
)

// gantt simulates one invocation into a virtual-time tracer and prints its
// per-core Gantt chart (one track per core). Each phase's chunk spans carry
// element ranges that start again at 0, and phases are barrier-separated,
// so in start order the span covering element 0 opens the next phase. The
// title is built from the highest phase index found, so a title that counts
// phases follows the model.
func gantt(title func(lastPhase int) string, m *machine.Machine, b *backend.Backend, op backend.Op, n int64, threads int) {
	tr := trace.NewVirtual(threads, trace.DefaultCapacity)
	r := simexec.Run(simexec.Config{
		Machine: m, Backend: b,
		Workload: skeleton.Workload{Op: op, N: n, ElemBytes: 8, Kit: 1, HitFrac: 0.6},
		Threads:  threads, Alloc: allocsim.FirstTouch,
		Tracer: tr,
	})
	type coreSpan struct {
		trace.Event
		core int
	}
	var spans []coreSpan
	for c := 0; c < threads; c++ {
		for _, e := range tr.Events(c) {
			if e.Kind == trace.KindChunk {
				spans = append(spans, coreSpan{e, c})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].A0 < spans[j].A0
	})
	rows := make([]report.GanttRow, threads)
	for c := range rows {
		rows[c].Label = fmt.Sprintf("core %2d", c)
	}
	phase := -1
	for _, s := range spans {
		if s.A0 == 0 {
			phase++
		}
		rows[s.core].Spans = append(rows[s.core].Spans, report.Span{
			Start: float64(s.Start) * 1e-9, End: float64(s.End) * 1e-9,
			Mark: '0' + byte(phase)%10,
		})
	}
	g := report.Gantt{
		Title: fmt.Sprintf("%s — %s, %s, n=%d, %d threads (%d task spans, %s total)",
			title(phase), b.ID, op, n, threads, len(spans), fmtDur(r.Seconds)),
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
	// Digits mark the phase of each span.
	gantt(func(last int) string {
		return fmt.Sprintf("parallel sort: leaf phase (0) + merge rounds (1..%d)", last)
	}, m, backend.GCCTBB(), backend.OpSort, 1<<24, 8)
	gantt(label("two-phase scan: reduce pass (0) + rescan pass (1)"),
		m, backend.GCCTBB(), backend.OpInclusiveScan, 1<<24, 8)
	gantt(label("early-exit find: cancellation cuts the losers at the winner's end"),
		m, backend.GCCTBB(), backend.OpFind, 1<<24, 8)
	gantt(label("HPX central queue: serialized task starts"),
		m, backend.GCCHPX(), backend.OpForEach, 1<<20, 8)
}
