package skeleton

import (
	"fmt"

	"pstlbench/internal/backend"
	"pstlbench/internal/exec"
	"pstlbench/internal/machine"
)

// Chain describes an s-stage element-wise pipeline chain for the fusion
// model: the shape internal/pipeline executes, here as a cost skeleton so
// the simulator can predict the traffic and time delta between the staged
// and fused forms that the chain entries of internal/kernels measure
// natively.
type Chain struct {
	// Stages is the number of element-wise transform stages before the
	// terminal (the "3-stage chain" of the headline claim has Stages=3
	// counting the terminal's own pass, i.e. Stages=2 transforms + reduce).
	Stages int
	// Terminal is "reduce", "copy", or "scan".
	Terminal string
	// Generate marks a generated source (no input array read; the staged
	// form still pays a materialization pass for it).
	Generate bool
}

// fusedStageInstr is the per-element cost of one fused stage: the user
// function's arithmetic only — the load/store and loop overhead that each
// staged pass repeats are paid once, in the terminal's base cost.
const fusedStageInstr = 1.0

// Validate panics on malformed chains.
func (c Chain) Validate() {
	if c.Stages < 0 {
		panic("skeleton: negative chain stages")
	}
	switch c.Terminal {
	case "reduce", "copy", "scan":
	default:
		panic(fmt.Sprintf("skeleton: unknown chain terminal %q", c.Terminal))
	}
}

// StagedBytesPerElem returns the modeled per-element DRAM traffic of
// running the chain as separate passes with materialized intermediates,
// for 8-byte elements (write-allocate accounting: a streamed store costs a
// read plus a write). The phase lists of StagedChainPhases carry exactly
// these bytes, which the skeleton tests check.
func (c Chain) StagedBytesPerElem() float64 {
	var b float64
	if c.Generate {
		b += 16 // materialize the generated source: write + write-allocate
	}
	b += float64(c.Stages) * 24 // per stage: read + write + write-allocate
	switch c.Terminal {
	case "reduce":
		b += 8
	case "copy":
		b += 24
	case "scan":
		b += 32 // reduce-like pass + rescan pass
	}
	return b
}

// FusedBytesPerElem returns the modeled per-element DRAM traffic of the
// fused single-pass execution: the source is read (at most) once per pass
// and only the terminal writes.
func (c Chain) FusedBytesPerElem() float64 {
	srcRead := 8.0
	if c.Generate {
		srcRead = 0
	}
	switch c.Terminal {
	case "reduce":
		return srcRead
	case "copy":
		return srcRead + 16
	case "scan":
		// Two passes, each re-evaluating the chain from the source.
		return 2*srcRead + 16
	}
	return srcRead
}

// chainParallel decides parallel execution the same way Build does for the
// transform op, whose traits dominate an element-wise chain.
func chainParallel(n int64, b *backend.Backend, threads int) (backend.OpTraits, bool) {
	tr := b.Traits(backend.OpTransform)
	return tr, !b.IsSequential() && tr.ParallelImpl && threads > 1 && n >= int64(tr.SeqThreshold)
}

// StagedChainPhases builds the phase list for executing the chain as
// separate core passes — one barrier-separated phase per stage plus the
// terminal — with backend b on the given thread count. Mirrors Build's
// conventions: a sequential execution is single-task phases.
func StagedChainPhases(w Workload, c Chain, b *backend.Backend, threads int, m *machine.Machine) (phases []Phase, parallel bool) {
	w.Validate()
	c.Validate()
	if w.N == 0 {
		return nil, false
	}
	_, parallel = chainParallel(w.N, b, threads)
	chunks := chainChunks(w, b, threads, parallel)

	if c.Generate {
		// Materialization pass for the generated source.
		phases = append(phases, chunkPhase(w, chunks, transformInstr, 1, w.scaleBytes(16), true))
	}
	for s := 0; s < c.Stages; s++ {
		phases = append(phases, chunkPhase(w, chunks, transformInstr, 1, w.scaleBytes(24), true))
	}
	switch c.Terminal {
	case "reduce":
		ph := chunkPhase(w, chunks, reduceInstr, 1, w.scaleBytes(reduceBytes), true)
		ph.SeqInstr = 20 * float64(len(chunks))
		phases = append(phases, ph)
	case "copy":
		phases = append(phases, chunkPhase(w, chunks, copyInstr, 0, w.scaleBytes(copyBytes), true))
	case "scan":
		p1 := chunkPhase(w, chunks, scanPass1Instr, 1, w.scaleBytes(scanPass1Bytes), true)
		p1.SeqInstr = 20 * float64(len(chunks))
		phases = append(phases, p1,
			chunkPhase(w, chunks, scanPass2Instr, 1, w.scaleBytes(scanPass2Bytes), true))
	}
	return phases, parallel
}

// FusedChainPhases builds the phase list for the fused chunk-granular
// execution of the same chain: one pass (two for scan), each element
// flowing through every stage in registers, with only the source read and
// the terminal's writes touching memory.
func FusedChainPhases(w Workload, c Chain, b *backend.Backend, threads int, m *machine.Machine) (phases []Phase, parallel bool) {
	w.Validate()
	c.Validate()
	if w.N == 0 {
		return nil, false
	}
	_, parallel = chainParallel(w.N, b, threads)
	chunks := chainChunks(w, b, threads, parallel)

	stageInstr := fusedStageInstr * float64(c.Stages)
	stageFlops := float64(c.Stages)
	srcRead := w.scaleBytes(8)
	if c.Generate {
		srcRead = 0
	}
	switch c.Terminal {
	case "reduce":
		ph := chunkPhase(w, chunks, reduceInstr+stageInstr, 1+stageFlops, srcRead, true)
		ph.SeqInstr = 20 * float64(len(chunks))
		phases = append(phases, ph)
	case "copy":
		phases = append(phases, chunkPhase(w, chunks, copyInstr+stageInstr, stageFlops, srcRead+w.scaleBytes(16), true))
	case "scan":
		p1 := chunkPhase(w, chunks, scanPass1Instr+stageInstr, 1+stageFlops, srcRead, true)
		p1.SeqInstr = 20 * float64(len(chunks))
		phases = append(phases, p1,
			chunkPhase(w, chunks, scanPass2Instr+stageInstr, 1+stageFlops, srcRead+w.scaleBytes(16), true))
	}
	return phases, parallel
}

// chainChunks partitions the chain's iteration space like Build does: the
// backend's grain for parallel runs, one whole-array task otherwise.
func chainChunks(w Workload, b *backend.Backend, threads int, parallel bool) []exec.Range {
	if parallel {
		return b.Grain.Partition(int(w.N), threads)
	}
	return []exec.Range{{Lo: 0, Hi: int(w.N)}}
}

// ChainWorkingSet returns the bytes the chain touches repeatedly, for the
// memory-level decision: staged execution ping-pongs the source and one
// materialized intermediate; fused execution touches only the source (plus
// the destination for copy/scan terminals).
func ChainWorkingSet(w Workload, c Chain, fused bool) int64 {
	ws := w.N * int64(w.ElemBytes)
	if c.Generate {
		ws = 0
	}
	if !fused && (c.Stages > 0 || c.Generate) {
		// One materialized intermediate array lives across passes.
		ws += w.N * int64(w.ElemBytes)
	}
	if c.Terminal != "reduce" {
		ws += w.N * int64(w.ElemBytes)
	}
	if ws == 0 {
		ws = w.N * int64(w.ElemBytes) // generated reduce: charge one pass
	}
	return ws
}
