package backend

import "testing"

func TestAllBackendsComplete(t *testing.T) {
	for _, b := range All() {
		if b.ID == "" || b.Compiler == "" {
			t.Errorf("backend missing identity: %+v", b)
		}
		for _, op := range Ops() {
			tr := b.Traits(op) // must not panic
			if tr.MemFactor <= 0 {
				t.Errorf("%s/%s: MemFactor %v", b.ID, op, tr.MemFactor)
			}
			if tr.SIMDLanes < 1 {
				t.Errorf("%s/%s: SIMDLanes %d", b.ID, op, tr.SIMDLanes)
			}
			if tr.AffinityMatch < 0 || tr.AffinityMatch > 1 {
				t.Errorf("%s/%s: AffinityMatch %v", b.ID, op, tr.AffinityMatch)
			}
		}
	}
}

func TestTable7BinarySizes(t *testing.T) {
	// The modeled footprints are the paper's Table 7 values.
	want := map[string]float64{
		"GCC-SEQ": 2.52, "GCC-TBB": 17.21, "GCC-GNU": 5.31, "GCC-HPX": 61.98,
		"ICC-TBB": 16.64, "NVC-OMP": 1.81, "NVC-CUDA": 7.80,
	}
	for id, mib := range want {
		b := ByID(id)
		if b == nil {
			t.Fatalf("missing backend %s", id)
		}
		if b.BinMiB != mib {
			t.Errorf("%s: BinMiB = %v, want %v", id, b.BinMiB, mib)
		}
	}
}

func TestPaperFallbacks(t *testing.T) {
	// Section 5.4: GNU has no parallel inclusive_scan; NVC-OMP falls back
	// to sequential for it.
	if GCCGNU().Traits(OpInclusiveScan).ParallelImpl {
		t.Error("GNU should have no parallel scan")
	}
	if NVCOMP().Traits(OpInclusiveScan).ParallelImpl {
		t.Error("NVC-OMP scan should fall back to sequential")
	}
	// Section 5.2/5.3: GNU sequential thresholds.
	if th := GCCGNU().Traits(OpForEach).SeqThreshold; th != 1<<10 {
		t.Errorf("GNU for_each threshold %d, want 2^10", th)
	}
	if th := GCCGNU().Traits(OpFind).SeqThreshold; th != 1<<9 {
		t.Errorf("GNU find threshold %d, want 2^9", th)
	}
	// Section 5.6: TBB sorts sequentially below 2^9, HPX below 2^15.
	if th := GCCTBB().Traits(OpSort).SeqThreshold; th != 1<<9+1 {
		t.Errorf("TBB sort threshold %d", th)
	}
	if th := GCCHPX().Traits(OpSort).SeqThreshold; th != 1<<15+1 {
		t.Errorf("HPX sort threshold %d", th)
	}
}

func TestTable4Vectorization(t *testing.T) {
	// Table 4: only ICC and HPX vectorize the reduction (256-bit).
	for _, b := range Parallel() {
		lanes := b.Traits(OpReduce).SIMDLanes
		wantVec := b.ID == "ICC-TBB" || b.ID == "GCC-HPX"
		if wantVec && lanes != 4 {
			t.Errorf("%s reduce lanes = %d, want 4", b.ID, lanes)
		}
		if !wantVec && lanes != 1 {
			t.Errorf("%s reduce lanes = %d, want 1", b.ID, lanes)
		}
	}
}

func TestStrategies(t *testing.T) {
	cases := map[string]Strategy{
		"GCC-SEQ": StrategySerial, "GCC-TBB": StrategyStealing,
		"GCC-GNU": StrategyStatic, "GCC-HPX": StrategyQueue,
		"ICC-TBB": StrategyStealing, "NVC-OMP": StrategyStatic,
		"NVC-CUDA": StrategyOffload,
	}
	for id, want := range cases {
		if got := ByID(id).Strategy; got != want {
			t.Errorf("%s strategy = %v, want %v", id, got, want)
		}
	}
	if !NVCCUDA().IsGPU() || GCCTBB().IsGPU() {
		t.Error("IsGPU wrong")
	}
	if !GCCSeq().IsSequential() || GCCGNU().IsSequential() {
		t.Error("IsSequential wrong")
	}
}

func TestICCUnavailableOnMachB(t *testing.T) {
	if ICCTBB().AvailableOn("Mach B (Zen 1)") {
		t.Error("ICC should be N/A on Mach B (Table 5)")
	}
	if !ICCTBB().AvailableOn("Mach A (Skylake)") {
		t.Error("ICC should exist on Mach A")
	}
	if !GCCTBB().AvailableOn("Mach B (Zen 1)") {
		t.Error("GCC should exist everywhere")
	}
}

func TestSetTrait(t *testing.T) {
	b := GCCTBB()
	orig := b.Traits(OpReduce).AffinityMatch
	b.SetTrait(OpReduce, func(tr *OpTraits) { tr.AffinityMatch = 0.123 })
	if b.Traits(OpReduce).AffinityMatch != 0.123 {
		t.Fatal("SetTrait did not apply")
	}
	// Constructors return fresh instances: the original is untouched.
	if GCCTBB().Traits(OpReduce).AffinityMatch != orig {
		t.Fatal("SetTrait leaked across constructor calls")
	}
}

func TestByIDUnknown(t *testing.T) {
	if ByID("GCC-LLVM") != nil {
		t.Fatal("unknown ID resolved")
	}
}

func TestTraitsPanicsOnMissingOp(t *testing.T) {
	b := &Backend{ID: "empty", ops: map[Op]OpTraits{}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Traits(OpSort)
}
