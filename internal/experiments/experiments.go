// Package experiments defines every experiment of the paper's evaluation —
// one constructor per figure and table — and an index that maps experiment
// identifiers to runners. Each experiment returns a Report of tables,
// charts, and notes; the pstlreport command and the repository's benchmark
// harness both consume this package.
package experiments

import (
	"fmt"
	"strings"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/machine"
	"pstlbench/internal/report"
	"pstlbench/internal/simexec"
	"pstlbench/internal/skeleton"
)

// Scale shrinks the experiment sizes from the paper's 2^30 for quick runs;
// 0 means full scale. The value is the exponent reduction: Scale=6 turns
// 2^30 into 2^24 (and thread sweeps are unaffected).
type Config struct {
	Scale int
}

// maxExp returns the paper's largest problem-size exponent under the
// configured scale.
func (c Config) maxExp() int {
	e := 30 - c.Scale
	if e < 10 {
		e = 10
	}
	return e
}

// Report is the result of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*report.Table
	Charts []*report.Chart
	Notes  []string
	// MeasuredNotes are computed from measured tables (report.Table's
	// Measured flag); they render after Notes as "note (measured): ...".
	MeasuredNotes []string
}

// String renders the full report.
func (r *Report) String() string { return r.render(false) }

// render writes the report. A pinned render leaves out the measured
// tables and notes, keeping only what must not change from run to run or
// host to host.
func (r *Report) render(pinned bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s: %s ====\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if pinned && t.Measured {
			continue
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, c := range r.Charts {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		b.WriteString("note: " + n + "\n")
	}
	if !pinned {
		for _, n := range r.MeasuredNotes {
			b.WriteString("note (measured): " + n + "\n")
		}
	}
	return b.String()
}

// Runner produces one experiment report.
type Runner func(Config) *Report

// Index maps experiment IDs (fig1..fig9, tab2..tab7, ablation ids) to
// runners, in presentation order.
func Index() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"tab2", Tab2Stream},
		{"fig1", Fig1Allocator},
		{"fig2", Fig2ForEachProblem},
		{"fig3", Fig3ForEachStrong},
		{"tab3", Tab3ForEachCounters},
		{"fig4", Fig4Find},
		{"fig5", Fig5InclusiveScan},
		{"fig6", Fig6Reduce},
		{"tab4", Tab4ReduceCounters},
		{"fig7", Fig7Sort},
		{"tab5", Tab5Speedups},
		{"tab6", Tab6Efficiency},
		{"tab7", Tab7BinarySizes},
		{"fig8", Fig8GPUForEach},
		{"fig9", Fig9GPUReduce},
		{"ext-arm", ExtensionARM},
		{"ext-numasteal", ExtensionNUMASteal},
		{"ext-adaptive", ExtensionAdaptive},
		{"ext-serve", ExtensionServe},
		{"ext-fusion", ExtensionFusion},
		{"ext-shard", ExtensionShard},
		{"ext-obs", ExtensionObs},
		{"ext-cluster", ExtensionCluster},
		{"ext-stream", ExtensionStream},
		{"abl-grain", AblationGrain},
		{"abl-contention", AblationContention},
		{"abl-hpx", AblationCheapFutures},
	}
}

// ByID returns the runner for an experiment ID, or nil.
func ByID(id string) Runner {
	for _, e := range Index() {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}

// findFracs samples hit positions for X::find, mirroring the paper's
// random-element search.
var findFracs = []float64{0.05, 0.17, 0.29, 0.41, 0.53, 0.65, 0.77, 0.89}

// runCase simulates one benchmark invocation, averaging find over hit
// positions. kit applies to for_each only.
type caseSpec struct {
	m       *machine.Machine
	b       *backend.Backend
	op      backend.Op
	n       int64
	kit     int
	threads int
	alloc   allocsim.Strategy
	elem    int // element bytes; 0 means 8
}

func runCase(cs caseSpec) simexec.Result {
	elem := cs.elem
	if elem == 0 {
		elem = 8
	}
	kit := cs.kit
	if kit == 0 {
		kit = 1
	}
	cfg := simexec.Config{
		Machine: cs.m, Backend: cs.b,
		Workload: skeleton.Workload{Op: cs.op, N: cs.n, ElemBytes: elem, Kit: kit, HitFrac: 0.5},
		Threads:  cs.threads, Alloc: cs.alloc,
	}
	if cs.op != backend.OpFind {
		return simexec.Run(cfg)
	}
	var agg simexec.Result
	for _, f := range findFracs {
		c := cfg
		c.Workload.HitFrac = f
		r := simexec.Run(c)
		agg.Seconds += r.Seconds
		agg.Counters.Add(r.Counters)
		agg.Level = r.Level
		agg.Parallel = r.Parallel
	}
	k := float64(len(findFracs))
	agg.Seconds /= k
	agg.Counters = agg.Counters.Scale(1 / k)
	return agg
}

// seqBaseline returns the GCC sequential time for the case. Like every
// experiment after Figure 1, the baseline runs with the custom first-touch
// allocator (which, for one thread, simply places all pages locally).
func seqBaseline(cs caseSpec) float64 {
	cs.b = backend.GCCSeq()
	cs.threads = 1
	cs.alloc = allocsim.FirstTouch
	return runCase(cs).Seconds
}

// sizesUpTo returns 2^3, 2^4, ..., 2^max.
func sizesUpTo(max int) []int64 {
	var out []int64
	for e := 3; e <= max; e++ {
		out = append(out, int64(1)<<e)
	}
	return out
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
