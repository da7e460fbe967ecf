package kernels

import (
	"strings"
	"testing"
	"time"

	"pstlbench/internal/core"
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
	if _, ok := ByName("transform"); ok {
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
	// Lookup across the extended set.
	if _, ok := ExtByName("stable_sort"); !ok {
		t.Error("ExtByName missed stable_sort")
	}
	if _, ok := ExtByName("nope"); ok {
		t.Error("ExtByName resolved a bogus name")
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
	ext := Extended()
	if ext[studied].Name != "transform" || ext[0].Name != "find" {
		t.Fatalf("table written through All(): %q, %q", ext[0].Name, ext[studied].Name)
	}
	if _, ok := ByName("find"); !ok {
		t.Fatal("ByName lost find")
	}
}

func TestBodyPanicsOnWrongResult(t *testing.T) {
	k := Kernel{Name: "broken", Bytes: 8, Setup: func(core.Policy, int, int) (func(), func(), func() bool) {
		return nil, func() {}, func() bool { return false }
	}}
	defer func() {
		if r := recover(); r != "kernels: broken result wrong" {
			t.Fatalf("recovered %v, want the result-check panic", r)
		}
	}()
	runKernel(t, k, core.Seq(), 16, 1)
}
