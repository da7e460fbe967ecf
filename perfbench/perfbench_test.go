package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/flow"
	"pstlbench/internal/native"
	"pstlbench/internal/serve"
)

func floatBytes(xs []float64) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, xs)
	return b.Bytes()
}

func mixOf(seed uint64, n int) []jobDraw {
	m := newJobMix(seed, 0)
	out := make([]jobDraw, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

func traceBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	b, err := json.Marshal(roundTrace(seed, 2, 0, 2048))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSeededInputs pins program-blind generation: the same seed gives
// byte-identical kernel inputs, job mixes and stream traces; another seed
// gives other inputs but the same job mix composition.
func TestSeededInputs(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		if !bytes.Equal(floatBytes(kernelInput(seed, 3, 4096)), floatBytes(kernelInput(seed, 3, 4096))) {
			t.Errorf("seed %d: kernel inputs differ between calls", seed)
		}
		a, b := mixOf(seed, 64), mixOf(seed, 64)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: job mix differs at %d", seed, i)
			}
		}
		if !bytes.Equal(traceBytes(t, seed), traceBytes(t, seed)) {
			t.Errorf("seed %d: stream traces differ between calls", seed)
		}
	}
	if bytes.Equal(floatBytes(kernelInput(1, 3, 4096)), floatBytes(kernelInput(2, 3, 4096))) {
		t.Error("kernel inputs ignore the seed")
	}
	if bytes.Equal(traceBytes(t, 1), traceBytes(t, 2)) {
		t.Error("stream traces ignore the seed")
	}
	a, b := mixOf(1, 64), mixOf(2, 64)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("job mix order ignores the seed")
	}
	count := func(ds []jobDraw) map[jobDraw]int {
		m := map[jobDraw]int{}
		for _, d := range ds {
			m[d]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for d, n := range ca {
		if n != 16 || cb[d] != 16 {
			t.Errorf("job mix %v: %d and %d of 64 draws, want 16", d, n, cb[d])
		}
	}
}

// TestKernelOracleGate runs every kernel on a parallel pool against its
// sequential oracle, then shows that a wrong oracle digest is counted.
func TestKernelOracleGate(t *testing.T) {
	pool := native.New(2, native.StrategyStealing)
	defer pool.Close()
	cases := buildCases(newKData(1, 4096, 4096, 1))
	r := newResult()
	runRounds(cases, core.Par(pool), 0, r, pool, nil)
	if r.failed != 0 || r.attempted != int64(kernelRounds*len(cases)) {
		t.Fatalf("correct kernels: %d of %d checks failed", r.failed, r.attempted)
	}
	cases[3].wants[0] ^= 1 // reduce
	r = newResult()
	runBlock(cases[3], core.Par(pool), 0, r, pool, nil)
	if r.failed != 1 {
		t.Fatalf("injected wrong reduce oracle: %d failures, want 1", r.failed)
	}
}

// TestJobOracleGate drives an in-process server over HTTP with the real
// and then a wrong expected checksum.
func TestJobOracleGate(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newJobClient(ts.URL, 2)
	r := newResult()
	ld := runLoad(c, 2, 1, 0, 200*time.Millisecond, svcOracle(), r)
	if r.failed != 0 || len(ld.jobs) == 0 {
		t.Fatalf("correct checksums: %d failed, %d jobs", r.failed, len(ld.jobs))
	}
	right := svcOracle()
	wrong := func(kernel string, n int) float64 { return right(kernel, n) + 1 }
	r = newResult()
	runLoad(c, 2, 1, 0, 200*time.Millisecond, wrong, r)
	if r.failed == 0 || r.failed != r.attempted {
		t.Fatalf("injected wrong checksum: %d of %d failed, want all", r.failed, r.attempted)
	}
}

// TestWindowOracleGate audits a live round against flow.Audit, then shows
// that one wrong oracle checksum is counted.
func TestWindowOracleGate(t *testing.T) {
	sp, err := newStreamPlane(2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	o, err := sp.runRound(1, 0, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	if err := o.audit(1, r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted < 10 {
		t.Fatalf("live round vs oracle: %d of %d checks failed", r.failed, r.attempted)
	}
	var lat samples
	o.latencies(&lat)
	if len(lat) == 0 {
		t.Error("no watermark-closed window got a latency")
	}
	cfg := streamConfig(streamDefs[0], 0)
	want, err := flow.Audit(cfg, roundTrace(1, 0, 0, 4096))
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int64, 0, len(want.Checksums))
	for s := range want.Checksums {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	want.Checksums[starts[0]]++
	var live []flow.WindowResult
	for _, tr := range o.results[0] {
		live = append(live, tr.WindowResult)
	}
	r = newResult()
	compareRound(r, cfg.Name, o.stats[0], live, want)
	if r.failed != 1 {
		t.Fatalf("injected wrong window checksum: %d failures, want 1", r.failed)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the runs emit in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []named) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
			if x.Unit != "" && x.Unit != unitOf(x.Name) {
				t.Errorf("%s: BENCHMARK.json unit %q, the run reports %q", x.Name, x.Unit, unitOf(x.Name))
			}
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, c := range []struct {
		what      string
		json, run []string
	}{
		{"workloads", names(spec.Workloads), sorted(wl)},
		{"end_to_end", names(spec.EndToEnd), sorted(e2eNames)},
		{"per_layer", names(spec.PerLayer), sorted(layerNames)},
	} {
		if len(c.json) != len(c.run) {
			t.Errorf("%s: BENCHMARK.json has %d, the runs emit %d", c.what, len(c.json), len(c.run))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.run[i] {
				t.Errorf("%s: BENCHMARK.json %q vs run %q", c.what, c.json[i], c.run[i])
			}
		}
	}
}
