package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// quick runs everything at strongly reduced scale.
var quick = Config{Scale: 10} // 2^20 elements

func TestIndexCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"tab2", "fig1", "fig2", "fig3", "tab3", "fig4", "fig5", "fig6",
		"tab4", "fig7", "tab5", "tab6", "tab7", "fig8", "fig9",
	}
	have := map[string]bool{}
	for _, e := range Index() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from index", id)
		}
	}
	if ByID("fig2") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
}

// goldenExact reports whether this build rounds floats like the one that
// wrote the goldens; golden_amd64_test.go sets it.
var goldenExact bool

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's pinned renders")

// TestEveryExperimentProducesOutput renders every experiment at the quick
// scale and compares the pinned render — the report minus its measured
// tables and notes — with testdata/<id>.golden. The goldens are compared
// only where goldenExact is set (see golden_amd64_test.go).
func TestEveryExperimentProducesOutput(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Index() {
		e := e
		ids[e.ID+".golden"] = true
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run(quick)
			if r.ID != e.ID {
				t.Errorf("report ID %q != %q", r.ID, e.ID)
			}
			out := r.String()
			if len(out) < 100 {
				t.Errorf("suspiciously short report:\n%s", out)
			}
			if len(r.Tables) == 0 && len(r.Charts) == 0 {
				t.Error("report has neither tables nor charts")
			}
			checkGolden(t, filepath.Join("testdata", e.ID+".golden"), r.render(true))
		})
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "*.golden"))
	for _, f := range files {
		if !ids[filepath.Base(f)] {
			t.Errorf("%s belongs to no experiment in Index()", f)
		}
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update; both only on builds where goldenExact is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if !goldenExact {
		return
	}
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./internal/experiments -update writes it)", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	t.Errorf("%s differs from line %d on (make golden rewrites it; explain the diff)\ngot:\n%s", path, i+1, got)
}

// parseCell extracts the float from a table cell like "8.7" or the first
// element of "8.7 | 4.4 | 6.9".
func parseCell(cell string, idx int) float64 {
	parts := strings.Split(cell, "|")
	v, err := strconv.ParseFloat(strings.TrimSpace(parts[idx]), 64)
	if err != nil {
		return -1
	}
	return v
}

func findRow(rows [][]string, name string) []string {
	for _, r := range rows {
		if r[0] == name {
			return r
		}
	}
	return nil
}

func TestTab5ShapesAtReducedScale(t *testing.T) {
	r := Tab5Speedups(Config{Scale: 6}) // 2^24: still DRAM-resident
	rows := r.Tables[0].Rows
	tbb := findRow(rows, "GCC-TBB")
	hpx := findRow(rows, "GCC-HPX")
	nvc := findRow(rows, "NVC-OMP")
	gnu := findRow(rows, "GCC-GNU")
	if tbb == nil || hpx == nil || nvc == nil || gnu == nil {
		t.Fatal("missing backend rows")
	}
	// Columns: 1=find 2=for_each k1 3=for_each k1000 4=scan 5=reduce 6=sort.
	// NVC leads for_each k=1 on Mach A; HPX trails.
	if !(parseCell(nvc[2], 0) > parseCell(tbb[2], 0) && parseCell(hpx[2], 0) < parseCell(tbb[2], 0)) {
		t.Errorf("for_each ordering wrong: nvc=%s tbb=%s hpx=%s", nvc[2], tbb[2], hpx[2])
	}
	// Scan: GNU and NVC sequential fallbacks stay around 1.
	if parseCell(gnu[4], 0) > 1.2 || parseCell(nvc[4], 0) > 1.2 {
		t.Errorf("scan fallbacks not sequential: gnu=%s nvc=%s", gnu[4], nvc[4])
	}
	// Sort: GNU clearly fastest on every machine.
	for mi := 0; mi < 3; mi++ {
		if gnuV, tbbV := parseCell(gnu[6], mi), parseCell(tbb[6], mi); gnuV < 1.5*tbbV {
			t.Errorf("machine %d: GNU sort %v not clearly ahead of TBB %v", mi, gnuV, tbbV)
		}
	}
	// ICC rows are N/A on Mach B.
	icc := findRow(rows, "ICC-TBB")
	if !strings.Contains(icc[1], "N/A") {
		t.Errorf("ICC on Mach B should be N/A: %s", icc[1])
	}
}

func TestFig1Signs(t *testing.T) {
	r := Fig1Allocator(Config{Scale: 4}) // 2^26
	rows := r.Tables[0].Rows
	for _, row := range rows {
		// Columns: 1=find 2=fe k1 3=fe k1000 4=scan 5=reduce 6=sort.
		name := row[0]
		feGain := parseCell(row[2], 0)
		if feGain < 1.2 {
			t.Errorf("%s: for_each k=1 allocator gain %v, want > 1.2", name, feGain)
		}
		if sortGain := parseCell(row[6], 0); sortGain < 0.95 || sortGain > 1.05 {
			t.Errorf("%s: sort allocator gain %v, want ~1.0", name, sortGain)
		}
		if kitGain := parseCell(row[3], 0); kitGain < 0.95 || kitGain > 1.05 {
			t.Errorf("%s: k_it=1000 allocator gain %v, want ~1.0", name, kitGain)
		}
	}
	// The negative cases: TBB find/scan, NVC find/scan.
	tbb := findRow(rows, "GCC-TBB")
	nvc := findRow(rows, "NVC-OMP")
	if parseCell(tbb[1], 0) >= 1.0 || parseCell(nvc[1], 0) >= 1.0 {
		t.Errorf("find allocator gains should be negative: tbb=%s nvc=%s", tbb[1], nvc[1])
	}
	if parseCell(tbb[4], 0) >= 1.0 || parseCell(nvc[4], 0) >= 1.0 {
		t.Errorf("scan allocator gains should be negative: tbb=%s nvc=%s", tbb[4], nvc[4])
	}
}

func TestTab7MatchesPaperExactly(t *testing.T) {
	r := Tab7BinarySizes(quick)
	want := map[string]string{
		"GCC-SEQ": "2.52", "GCC-TBB": "17.21", "GCC-GNU": "5.31",
		"GCC-HPX": "61.98", "ICC-TBB": "16.64", "NVC-OMP": "1.81", "NVC-CUDA": "7.80",
	}
	for _, row := range r.Tables[0].Rows {
		if want[row[0]] != row[1] {
			t.Errorf("%s: %s, want %s", row[0], row[1], want[row[0]])
		}
	}
}

func TestGPUChartsShowCrossover(t *testing.T) {
	// Fig 9: with transfers the GPU line must sit far above the resident
	// line at large n.
	r := Fig9GPUReduce(Config{Scale: 4})
	if len(r.Charts) != 2 {
		t.Fatalf("fig9 has %d charts", len(r.Charts))
	}
	withT := r.Charts[0]
	resident := r.Charts[1]
	// Find the T4 series in both charts and compare the largest size.
	var a, b float64
	for _, s := range withT.Series {
		if strings.Contains(s.Name, "Tesla") {
			a = s.Y[len(s.Y)-1]
		}
	}
	for _, s := range resident.Series {
		if strings.Contains(s.Name, "Tesla") {
			b = s.Y[len(s.Y)-1]
		}
	}
	if a == 0 || b == 0 {
		t.Fatal("missing T4 series")
	}
	if a < 3*b {
		t.Errorf("transfers should dominate: with=%v resident=%v", a, b)
	}
}

func TestAblationContentionMonotone(t *testing.T) {
	// 2^26 elements: comfortably DRAM-resident on Mach B, where the
	// NUMA mechanisms actually bind (at 2^24 the LLC would serve it).
	r := AblationContention(Config{Scale: 4})
	rows := r.Tables[0].Rows
	full := parseCell(rows[0][1], 0)
	noNUMA := parseCell(rows[len(rows)-1][1], 0)
	if noNUMA <= full {
		t.Errorf("removing NUMA effects should raise TBB speedup: full=%v none=%v", full, noNUMA)
	}
}

// TestFig2CrossoverLocation: in the problem-scaling chart, the sequential
// and parallel series must cross between 2^12 and 2^20 (the paper puts it
// near 2^16 on Mach A).
func TestFig2CrossoverLocation(t *testing.T) {
	r := Fig2ForEachProblem(Config{Scale: 6})
	chart := r.Charts[0] // Mach A, k_it = 1
	var seq, tbb *struct{ X, Y []float64 }
	for i := range chart.Series {
		s := &chart.Series[i]
		switch s.Name {
		case "GCC-SEQ":
			seq = &struct{ X, Y []float64 }{s.X, s.Y}
		case "GCC-TBB":
			tbb = &struct{ X, Y []float64 }{s.X, s.Y}
		}
	}
	if seq == nil || tbb == nil {
		t.Fatal("missing series")
	}
	cross := -1.0
	for i := range seq.X {
		if tbb.Y[i] < seq.Y[i] {
			cross = seq.X[i]
			break
		}
	}
	if cross < 0 {
		t.Fatal("parallel never overtakes sequential")
	}
	if cross < 1<<12 || cross > 1<<20 {
		t.Errorf("crossover at n=%v, want within [2^12, 2^20]", cross)
	}
	// And at the smallest size, sequential must win by a wide margin
	// (the paper: often by orders of magnitude).
	if tbb.Y[0] < 10*seq.Y[0] {
		t.Errorf("at n=8 parallel (%v) should be >=10x slower than seq (%v)", tbb.Y[0], seq.Y[0])
	}
}
