package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pstlbench/internal/core"
	"pstlbench/internal/flow"
	"pstlbench/internal/native"
	"pstlbench/internal/serve"
)

// batchTenant is the stream-windows workload's closed-loop batch client:
// one sort job at a time on the server the windows share, so a streaming
// gain that starves batch work shows in its throughput.
type batchTenant struct {
	res   *result // owned by the client goroutine until stop returns
	done  atomic.Int64
	quit  chan struct{}
	wg    sync.WaitGroup
	start time.Time
}

func startBatch(srv *serve.Server) *batchTenant {
	b := &batchTenant{res: newResult(), quit: make(chan struct{}), start: time.Now()}
	want := serve.ExpectedChecksum("sort", batchN)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			select {
			case <-b.quit:
				return
			default:
			}
			j, err := srv.Submit(serve.Spec{Kernel: "sort", N: batchN, Tenant: "batch"})
			if err != nil {
				b.res.check(false, "batch submit: %v", err)
				time.Sleep(5 * time.Millisecond)
				continue
			}
			<-j.Done()
			info := srv.Info(j)
			ok := info.State == "done" && info.Checksum == want
			b.res.check(ok, "batch %s: state %s checksum %v, oracle %v", info.ID, info.State, info.Checksum, want)
			if ok {
				b.done.Add(1)
			}
		}
	}()
	return b
}

// stop ends the loop after its in-flight job and returns the completed
// count and the time the loop ran.
func (b *batchTenant) stop() (int64, time.Duration) {
	close(b.quit)
	b.wg.Wait()
	return b.done.Load(), time.Since(b.start)
}

// applyProbe is the median time of stream k's operator on one window's
// worth of events (one window size of event time), on a fresh pool.
func applyProbe(workers int, seed uint64, k, calls int) float64 {
	d := streamDefs[k]
	evs := roundTrace(seed, 0, k, int(d.size/traceStepNS))
	pool := native.New(workers, native.StrategyStealing)
	defer pool.Close()
	p := core.Par(pool)
	op := flow.OpSpec{Kind: d.op}
	var s samples
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		op.Apply(p, evs)
		s.add(time.Since(t0))
	}
	return s.median()
}
