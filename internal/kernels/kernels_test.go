package kernels

import (
	"strings"
	"testing"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/exec"
	"pstlbench/internal/harness"
	"pstlbench/internal/native"
)

func runKernel(t *testing.T, k Kernel, p core.Policy, n, kit int) harness.Result {
	t.Helper()
	su := &harness.Suite{}
	su.Register(harness.Benchmark{
		Name:    k.Name,
		MinTime: 5 * time.Millisecond,
		Fn:      k.Body(p, n, kit),
	})
	rs := su.Run(nil)
	if len(rs) != 1 {
		t.Fatalf("expected one result, got %d", len(rs))
	}
	return rs[0]
}

func policies(t *testing.T) map[string]core.Policy {
	t.Helper()
	pool := native.New(4, native.StrategyStealing)
	t.Cleanup(pool.Close)
	return map[string]core.Policy{
		"seq": core.Seq(),
		"par": core.Par(pool),
	}
}

func TestAllKernelsRunAndValidate(t *testing.T) {
	// Each kernel body validates its own result and panics on corruption,
	// so a clean run is a correctness check of the real library under
	// benchmark conditions.
	for name, p := range policies(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			for _, k := range All() {
				r := runKernel(t, k, p, 10000, 4)
				if r.Seconds <= 0 {
					t.Errorf("%s: non-positive time", k.Name)
				}
				if r.BytesPerSec <= 0 {
					t.Errorf("%s: missing throughput", k.Name)
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, k := range All() {
		got, ok := ByName(k.Name)
		if !ok || got.Name != k.Name {
			t.Errorf("ByName(%q) failed", k.Name)
		}
	}
	for _, name := range []string{"stable_sort", "chain_gen_sum_fused"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName missed %s", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown kernel resolved")
	}
	names := make([]string, 0, 5)
	for _, k := range All() {
		names = append(names, k.Name)
	}
	if strings.Join(names, ",") != "find,for_each,inclusive_scan,reduce,sort" {
		t.Errorf("kernel order: %v", names)
	}
}

func TestForEachKernelSemantics(t *testing.T) {
	// Listing 1: the kernel stores k_it into each element.
	k := ForEachKernel(37)
	var v Elem = 99
	k(&v)
	if v != 37 {
		t.Fatalf("kernel stored %v, want 37", v)
	}
}

func TestKernelsHonorKit(t *testing.T) {
	// Higher k_it must take proportionally longer on for_each.
	p := core.Seq()
	lo := runKernel(t, mustKernel(t, "for_each"), p, 1<<14, 1)
	hi := runKernel(t, mustKernel(t, "for_each"), p, 1<<14, 2000)
	if hi.Seconds < 20*lo.Seconds {
		t.Errorf("k_it=2000 (%v) should cost >> k_it=1 (%v)", hi.Seconds, lo.Seconds)
	}
}

func mustKernel(t *testing.T, name string) Kernel {
	t.Helper()
	k, ok := ByName(name)
	if !ok {
		t.Fatalf("missing kernel %s", name)
	}
	return k
}

func TestExtendedKernelsRunAndValidate(t *testing.T) {
	pool := native.New(3, native.StrategyForkJoin)
	t.Cleanup(pool.Close)
	p := core.Par(pool)
	ext := Extended()
	if len(ext) < 19 {
		t.Fatalf("extended set has %d kernels, want >= 19", len(ext))
	}
	for _, k := range ext {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r := runKernel(t, k, p, 4096, 2)
			if r.Seconds <= 0 || r.BytesPerSec <= 0 {
				t.Fatalf("%s: bad measurement %+v", k.Name, r)
			}
		})
	}
	// The five studied kernels plus the four extension ops are
	// simulator-backed.
	simCount := 0
	for _, k := range ext {
		if k.Sim {
			simCount++
		}
	}
	if simCount != 9 {
		t.Errorf("sim-backed kernels = %d, want 9", simCount)
	}
}

func TestAllReturnsCopies(t *testing.T) {
	// Appending to All's slice must not overwrite the sixth table entry,
	// and writing an entry must not rename the table's kernel.
	_ = append(All(), Kernel{Name: "bogus"})
	All()[0].Name = "bogus"
	_ = append(Extended(), Kernel{Name: "bogus"})
	Chains()[0].Name = "bogus"
	Chains()[0].Chain.Stages = 9
	ext := Extended()
	if ext[studied].Name != "transform" || ext[0].Name != "find" {
		t.Fatalf("table written through All(): %q, %q", ext[0].Name, ext[studied].Name)
	}
	if _, ok := ByName("find"); !ok {
		t.Fatal("ByName lost find")
	}
	if c := Chains()[0]; c.Name != "chain_sum_staged" || c.Chain.Stages != 2 {
		t.Fatalf("table written through Chains(): %q with %d stages", c.Name, c.Chain.Stages)
	}
	if k, ok := ByName("chain_sum_staged"); !ok || k.Name != "chain_sum_staged" {
		t.Fatal("table written through Extended()")
	}
}

func TestChainsRunAndValidate(t *testing.T) {
	// Each chain checks its result against the sequential sum, so a clean
	// run at sizes on and off chunk edges checks staged and fused alike.
	pool := native.New(2, native.StrategyStealing)
	t.Cleanup(pool.Close)
	chains := Chains()
	if len(chains) != 6 {
		t.Fatalf("%d chains, want 6", len(chains))
	}
	for name, p := range map[string]core.Policy{"seq": core.Seq(), "par": core.Par(pool)} {
		for _, k := range chains {
			for _, n := range []int{0, 1, 4097, 1 << 16} {
				r := runKernel(t, k, p, n, 1)
				if r.Seconds <= 0 {
					t.Errorf("%s %s/%d: non-positive time", name, k.Name, n)
				}
			}
		}
	}
}

func TestChainTrafficPerCall(t *testing.T) {
	// Staged slice chains move 56 B/elem (two read+write+allocate stages and
	// the reduce read), fused ones only the source read; generated chains add
	// the 16 B/elem materialization when staged and read nothing when fused.
	want := map[string]int64{
		"chain_sum_staged": 56, "chain_sum_fused": 8,
		"chain_reduce_staged": 56, "chain_reduce_fused": 8,
		"chain_gen_sum_staged": 72, "chain_gen_sum_fused": 0,
	}
	const n = 4096
	for _, k := range Chains() {
		if r := runKernel(t, k, core.Seq(), n, 1); r.TrafficBytes != want[k.Name]*n {
			t.Errorf("%s: traffic %d per call, want %d", k.Name, r.TrafficBytes, want[k.Name]*n)
		}
	}
	if r := runKernel(t, mustKernel(t, "reduce"), core.Seq(), n, 1); r.TrafficBytes != 0 {
		t.Errorf("reduce reports modeled traffic %d", r.TrafficBytes)
	}
}

func TestBodyPanicsOnWrongResult(t *testing.T) {
	broken := Kernel{Name: "broken", Bytes: 8, Setup: func(core.Policy, int, int) (func(), func(), func() bool) {
		return nil, func() {}, func() bool { return false }
	}}
	// A canceled policy leaves every chain's sum incomplete; its check must
	// reject that result.
	pool := native.New(2, native.StrategyStealing)
	t.Cleanup(pool.Close)
	var c exec.Cancel
	c.Cancel()
	canceled := core.Par(pool).WithCancel(&c)
	for _, k := range append([]Kernel{broken}, Chains()...) {
		func() {
			defer func() {
				if r := recover(); r != "kernels: "+k.Name+" result wrong" {
					t.Errorf("%s: recovered %v, want the result-check panic", k.Name, r)
				}
			}()
			runKernel(t, k, canceled, 1<<16, 1)
		}()
	}
}
