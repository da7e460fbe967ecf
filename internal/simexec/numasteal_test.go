package simexec

import (
	"testing"

	"pstlbench/internal/allocsim"
	"pstlbench/internal/backend"
	"pstlbench/internal/exec"
	"pstlbench/internal/machine"
	"pstlbench/internal/skeleton"
	"pstlbench/internal/trace"
)

// TestNUMAStealModel verifies the simulated plane responds to the
// --numa-steal policy the way the tentpole intends: on the 8-node Zen
// machine, uniform random stealing (off) migrates chunks across nodes and
// pays fabric traffic, while the locality-ordered scan (on) eliminates the
// remote steals and the remote traffic with them.
func TestNUMAStealModel(t *testing.T) {
	m := machine.MachB()
	run := func(on bool) Result {
		b := backend.GCCTBB()
		b.NUMASteal = on
		return Run(Config{
			Machine: m, Backend: b,
			Workload: wl(backend.OpForEach, 1<<26), // 512 MiB: DRAM-resident
			Threads:  m.Cores, Alloc: allocsim.FirstTouch,
		})
	}

	off := run(false)
	on := run(true)

	if off.Counters.RemoteSteals == 0 {
		t.Fatal("uniform stealing on Mach B recorded no remote steals")
	}
	if on.Counters.RemoteSteals >= off.Counters.RemoteSteals {
		t.Fatalf("NUMA steal order did not reduce remote steals: on=%v off=%v",
			on.Counters.RemoteSteals, off.Counters.RemoteSteals)
	}
	if on.Seconds >= off.Seconds {
		t.Fatalf("NUMA steal order did not help a DRAM-bound for_each: on=%vs off=%vs",
			on.Seconds, off.Seconds)
	}

	// The policy only changes scheduling and placement, not the work:
	// instruction counts match and the run stays deterministic.
	if on.Counters.Instructions != off.Counters.Instructions {
		t.Fatalf("instruction count changed with steal policy: on=%v off=%v",
			on.Counters.Instructions, off.Counters.Instructions)
	}
	if again := run(true); again.Seconds != on.Seconds {
		t.Fatalf("NUMASteal run not deterministic: %v vs %v", again.Seconds, on.Seconds)
	}

	// Static fork-join ignores the toggle entirely.
	g := backend.GCCGNU()
	g.NUMASteal = true
	gOn := Run(Config{Machine: m, Backend: g,
		Workload: wl(backend.OpForEach, 1<<26), Threads: m.Cores, Alloc: allocsim.FirstTouch})
	g2 := backend.GCCGNU()
	gOff := Run(Config{Machine: m, Backend: g2,
		Workload: wl(backend.OpForEach, 1<<26), Threads: m.Cores, Alloc: allocsim.FirstTouch})
	if gOn.Seconds != gOff.Seconds {
		t.Fatalf("static backend responded to NUMASteal: %v vs %v", gOn.Seconds, gOff.Seconds)
	}
}

// TestHomeBandsMatchNativeSplit pins the simulator's home bands to the
// native stealing pool's band split: tasks%threads leading bands hold one
// more task (10 tasks on 4 cores: 3,3,2,2; 37 on 8: five of 5, three of 4).
// With identical compute-only tasks and the locality-ordered scan, every
// core drains exactly its own band, so each task runs on its home core and
// nothing is stolen.
func TestHomeBandsMatchNativeSplit(t *testing.T) {
	for _, tc := range []struct {
		threads int
		bands   []int
	}{
		{4, []int{3, 3, 2, 2}},
		{8, []int{5, 5, 5, 5, 5, 4, 4, 4}},
	} {
		var home []int
		for c, size := range tc.bands {
			for k := 0; k < size; k++ {
				home = append(home, c)
			}
		}
		tasks := make([]skeleton.Task, len(home))
		for i := range tasks {
			tasks[i] = skeleton.Task{
				Elems:        1000,
				Span:         exec.Range{Lo: i * 1000, Hi: (i + 1) * 1000},
				InstrPerElem: 10,
			}
		}
		b := backend.GCCTBB()
		b.NUMASteal = true
		tr := trace.NewVirtual(tc.threads, trace.DefaultCapacity)
		r := runPhases(Config{
			Machine: machine.MachB(), Backend: b,
			Workload: wl(backend.OpForEach, int64(len(tasks))*1000),
			Threads:  tc.threads, Alloc: allocsim.FirstTouch, Tracer: tr,
		}, []skeleton.Phase{{Tasks: tasks, EarlyExit: -1}}, 0, true)

		spans := chunkSpans(tr)
		if len(spans) != len(tasks) {
			t.Fatalf("%d tasks on %d cores: traced %d spans", len(tasks), tc.threads, len(spans))
		}
		for _, sp := range spans {
			// Task i covers elements [1000i, 1000(i+1)).
			if task := int(sp.A0 / 1000); sp.core != home[task] {
				t.Errorf("%d tasks on %d cores: task %d ran on core %d, home band of core %d",
					len(tasks), tc.threads, task, sp.core, home[task])
			}
		}
		if s := r.Counters.Steals(); s != 0 {
			t.Errorf("%d tasks on %d cores: %v steals, want 0", len(tasks), tc.threads, s)
		}
	}
}
