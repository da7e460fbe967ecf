package serve

import (
	"fmt"
	"sort"
	"sync"

	"pstlbench/internal/core"
)

// Kernels lists the job kernels the server accepts, in stable order.
func Kernels() []string {
	return []string{"foreach", "reduce", "scan", "sort", "find"}
}

// KernelValid reports whether name is a servable kernel.
func KernelValid(name string) bool {
	for _, k := range Kernels() {
		if k == name {
			return true
		}
	}
	return false
}

// runJob dispatches one job body: a custom Fn when the spec carries one
// (the streaming plane's window jobs), else the named kernel. A custom
// body reports ok under the same rule as the kernels — a fired token means
// the result is torn and must be discarded.
func runJob(p core.Policy, spec Spec) (float64, bool) {
	if spec.Fn != nil {
		sum := spec.Fn(p)
		return sum, !p.Canceled()
	}
	return runKernel(p, spec.Kernel, spec.N)
}

// runKernel executes one job body under p (which carries the job's
// cancellation token) and returns a checksum of the result. ok=false means
// the token fired and the result is torn: the checksum must be discarded,
// never reported — the invariant the cancellation property tests pin.
//
// Each job owns its data while it runs: its input (and scan's output) is
// taken from the inputs pool and refilled in full, deterministically in n,
// so checksums are reproducible for validation. The buffers go back in a
// defer, so a cancelled or panicking job returns them too. That is safe
// because every core call returns only after each chunk of its loops has
// completed or been skipped (the contract of ForChunksCancel, which holds
// for a panicking chunk too: the pool re-raises the panic once the loop is
// done), so no chunk of this job still touches a buffer another job may
// take next.
func runKernel(p core.Policy, kernel string, n int) (checksum float64, ok bool) {
	in := getInput(n)
	defer inputs.Put(in)
	data := *in
	switch kernel {
	case "foreach":
		for i := range data {
			data[i] = float64(i % 16)
		}
		core.ForEach(p, data, func(v *float64) { *v = *v*3 + 1 })
		checksum = core.Sum(p, data, 0)
	case "reduce":
		for i := range data {
			data[i] = 1
		}
		checksum = core.Sum(p, data, 0)
	case "scan":
		for i := range data {
			data[i] = 1
		}
		out := getInput(n)
		defer inputs.Put(out)
		dst := *out
		core.InclusiveScan(p, dst, data, func(a, b float64) float64 { return a + b })
		checksum = dst[n-1]
	case "sort":
		for i := range data {
			// Multiplicative LCG: deterministic shuffle-like fill.
			data[i] = float64((uint64(i+1) * 6364136223846793005) % 1_000_003)
		}
		core.Sort(p, data)
		checksum = data[0] + data[n/2] + data[n-1]
	case "find":
		for i := range data {
			data[i] = float64(i)
		}
		checksum = float64(core.Find(p, data, float64(n-1)))
	default:
		panic(fmt.Sprintf("serve: unknown kernel %q (validated at admission)", kernel))
	}
	return checksum, !p.Canceled()
}

// inputs holds *[]float64 job buffers that runKernel reuses across jobs,
// so a steady stream of jobs allocates no n-element buffer per job.
var inputs sync.Pool

// getInput returns a buffer of n elements from inputs; a pooled one too
// short for n is dropped for a new one.
func getInput(n int) *[]float64 {
	if b, ok := inputs.Get().(*[]float64); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]float64, n)
	return &b
}

// ExpectedChecksum returns the reference checksum of a kernel at size n,
// computed sequentially — the validation oracle of the tests and the
// loadgen.
func ExpectedChecksum(kernel string, n int) float64 {
	switch kernel {
	case "foreach":
		s := 0.0
		for i := 0; i < n; i++ {
			s += float64(i%16)*3 + 1
		}
		return s
	case "reduce", "scan":
		return float64(n)
	case "sort":
		data := make([]float64, n)
		for i := range data {
			data[i] = float64((uint64(i+1) * 6364136223846793005) % 1_000_003)
		}
		sort.Float64s(data)
		return data[0] + data[n/2] + data[n-1]
	case "find":
		return float64(n - 1)
	}
	return 0
}
