package native

import (
	"fmt"
	"testing"

	"pstlbench/internal/exec"
)

// TestForChunksSteadyStateAllocs asserts the zero-allocation dispatch
// property of the scheduler: once the pool's job descriptors, worker queues
// and injector buffer are warm, ForChunks must not allocate per call — and
// in particular not per chunk, which is where the seed's
// one-closure-per-chunk scheme spent its time. A tiny fixed budget is
// allowed for incidental runtime activity; the seed pool sat at 20+ allocs
// per call (260+ for centralqueue).
func TestForChunksSteadyStateAllocs(t *testing.T) {
	const allocBudget = 2.0
	for _, s := range allStrategies {
		for _, workers := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", s, workers), func(t *testing.T) {
				p := New(workers, s)
				defer p.Close()
				body := func(worker, lo, hi int) {}
				// Warm up: size the job table, queues and band arrays.
				for i := 0; i < 100; i++ {
					p.ForChunks(1<<15, exec.Fine, body)
				}
				allocs := testing.AllocsPerRun(200, func() {
					p.ForChunks(1<<15, exec.Fine, body)
				})
				if allocs > allocBudget {
					t.Fatalf("steady-state ForChunks allocates %.1f/call, budget %.1f",
						allocs, allocBudget)
				}
			})
		}
	}
}

// TestGrainDispatchNoRangeSlice pins the partitioning side of the
// zero-allocation dispatch: every strategy schedules by chunk index and
// reads ranges from the job's exec.Chunks, so no []Range is built per call,
// even for the guided grain.
func TestGrainDispatchNoRangeSlice(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.String(), func(t *testing.T) {
			p := New(4, s)
			defer p.Close()
			body := func(worker, lo, hi int) {}
			for i := 0; i < 50; i++ {
				p.ForChunks(1<<15, exec.Guided, body)
			}
			allocs := testing.AllocsPerRun(100, func() {
				p.ForChunks(1<<15, exec.Guided, body)
			})
			if allocs > 2.0 {
				t.Fatalf("guided ForChunks allocates %.1f/call", allocs)
			}
		})
	}
}
