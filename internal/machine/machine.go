// Package machine describes the simulated hardware platforms.
//
// HARDWARE SUBSTITUTION: the paper evaluates on two-socket Skylake, Zen 1
// and Zen 3 servers (32/64/128 cores) plus NVIDIA T4 and A2 GPUs. None of
// that hardware is available here, so each platform is modeled from the
// parameters the paper publishes in Table 2 — core counts, frequencies,
// NUMA topology, and measured STREAM bandwidths for one core and for all
// cores — extended with public cache sizes for the three CPUs. The
// discrete-event simulator in package simexec consumes these descriptions.
package machine

import "fmt"

// Machine describes one simulated platform.
type Machine struct {
	// Name is the paper's identifier (e.g. "Mach A (Skylake)").
	Name string
	// CPU is the processor or GPU model.
	CPU string
	// Arch is the microarchitecture name.
	Arch string

	Sockets   int
	NUMANodes int // total NUMA nodes (paper's Table 2 "Sockets | NUMA nodes")
	Cores     int // total physical cores

	FreqGHz float64
	// BoostGHz is the single-core boost clock: a sequential run gets it,
	// an all-core run gets FreqGHz. On the Zen machines this gap is what
	// caps even perfectly parallel code at 80-86 %% efficiency relative
	// to the sequential baseline (Table 5's for_each k_it=1000 row).
	// 0 means no boost (Mach A runs with turbo disabled).
	BoostGHz float64
	// IPC is the sustained scalar instruction throughput per core per
	// cycle for the pointer-chasing/loop mix of the benchmark kernels.
	IPC float64
	// SIMDLanes64 is the number of 64-bit lanes of the widest vector unit
	// (4 = AVX2/256-bit, 8 = AVX-512).
	SIMDLanes64 int

	// Cache capacities (bytes).
	L2PerCore    int64
	LLCPerSocket int64

	// Measured STREAM bandwidths from Table 2 (GB/s).
	BW1Core    float64 // single core
	BWAllCores float64 // all cores together

	// Cache bandwidths for the capacity model (GB/s).
	L2BWPerCore float64 // private, per core
	LLCBWSocket float64 // shared, per socket

	// RemoteFactor scales effective bandwidth for accesses to a remote
	// NUMA node (0 < RemoteFactor <= 1).
	RemoteFactor float64

	// FabricBW is the total inter-node interconnect bandwidth (GB/s):
	// the sum of all remote-node traffic cannot exceed it. It is the
	// mechanism that makes the 8-node Zen machines collapse for badly
	// placed workloads (Table 5's Mach B/C columns).
	FabricBW float64

	// GPU is non-nil for the GPU platforms (Mach D, Mach E).
	GPU *GPU
}

// GPU describes a simulated CUDA device with unified memory.
type GPU struct {
	Name       string
	Arch       string
	SMs        int
	CoresPerSM int
	FreqGHz    float64

	// DeviceBW is the measured device memory bandwidth (Table 2's STREAM
	// row, GB/s).
	DeviceBW float64
	// MemBytes is the device memory capacity.
	MemBytes int64

	// LinkBW is the host<->device PCIe bandwidth (GB/s).
	LinkBW float64
	// LaunchLatency is the fixed cost of launching one kernel (seconds).
	LaunchLatency float64
	// PageFaultLatency is the fixed per-migration-batch cost of a unified
	// memory page-fault group (seconds). On-demand migration moves pages
	// in batches; the effective transfer rate for faulted data is well
	// below LinkBW.
	PageFaultLatency float64
	// FaultBWFactor scales LinkBW for fault-driven (as opposed to bulk
	// prefetched) transfers.
	FaultBWFactor float64
}

// NodeBW returns the DRAM bandwidth of one NUMA node (GB/s).
func (m *Machine) NodeBW() float64 { return m.BWAllCores / float64(m.NUMANodes) }

// blockAssign places item into one of groups consecutive blocks covering
// [0, items): the first items%groups blocks get one extra element, so every
// item maps to a valid group even when items is not divisible by groups.
func blockAssign(item, items, groups int) int {
	base := items / groups
	rem := items % groups
	cut := rem * (base + 1)
	if item < cut {
		return item / (base + 1)
	}
	return rem + (item-cut)/base
}

// NodeOf returns the NUMA node of a core (block assignment, as on the real
// machines: consecutive core IDs share a node). With a ragged core count the
// first Cores%NUMANodes nodes hold one extra core.
func (m *Machine) NodeOf(core int) int {
	if core < 0 || core >= m.Cores {
		panic(fmt.Sprintf("machine %s: core %d out of range", m.Name, core))
	}
	return blockAssign(core, m.Cores, m.NUMANodes)
}

// SocketOf returns the socket of a core, with the same block assignment and
// remainder rule as NodeOf.
func (m *Machine) SocketOf(core int) int {
	if core < 0 || core >= m.Cores {
		panic(fmt.Sprintf("machine %s: core %d out of range", m.Name, core))
	}
	return blockAssign(core, m.Cores, m.Sockets)
}

// SeqFreqGHz returns the clock of a single-threaded run (boost clock when
// the machine has one).
func (m *Machine) SeqFreqGHz() float64 {
	if m.BoostGHz > m.FreqGHz {
		return m.BoostGHz
	}
	return m.FreqGHz
}

// ThreadCounts returns the 1, 2, 4, ..., Cores sequence used by the
// paper's strong-scaling experiments.
func (m *Machine) ThreadCounts() []int {
	var out []int
	for t := 1; t <= m.Cores; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != m.Cores {
		out = append(out, m.Cores)
	}
	return out
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// MachA is the paper's Mach A: 2-socket Intel Xeon Gold 6130F (Skylake),
// 32 cores, 2 NUMA nodes, STREAM 11.7 / 135 GB/s.
func MachA() *Machine {
	return &Machine{
		Name: "Mach A (Skylake)", CPU: "Intel Xeon 6130F", Arch: "Skylake",
		Sockets: 2, NUMANodes: 2, Cores: 32,
		FreqGHz: 2.10, IPC: 2.0, SIMDLanes64: 8, // AVX-512
		L2PerCore: mib, LLCPerSocket: 22 * mib,
		BW1Core: 11.7, BWAllCores: 135,
		L2BWPerCore: 70, LLCBWSocket: 300,
		RemoteFactor: 0.65, FabricBW: 55,
	}
}

// MachB is the paper's Mach B: 2-socket AMD EPYC 7551 (Zen 1), 64 cores,
// 8 NUMA nodes, STREAM 26.0 / 204 GB/s.
func MachB() *Machine {
	return &Machine{
		Name: "Mach B (Zen 1)", CPU: "AMD EPYC 7551", Arch: "Zen",
		Sockets: 2, NUMANodes: 8, Cores: 64,
		FreqGHz: 2.00, BoostGHz: 2.35, IPC: 2.0, SIMDLanes64: 2, // 128-bit FP datapath
		L2PerCore: 512 * kib, LLCPerSocket: 64 * mib,
		BW1Core: 26.0, BWAllCores: 204,
		L2BWPerCore: 60, LLCBWSocket: 400,
		RemoteFactor: 0.55, FabricBW: 32, // Zen 1's inter-CCX/inter-socket fabric is weak
	}
}

// MachC is the paper's Mach C: 2-socket AMD EPYC 7713 (Zen 3), 128 cores,
// 8 NUMA nodes, STREAM 42.6 / 249 GB/s.
func MachC() *Machine {
	return &Machine{
		Name: "Mach C (Zen 3)", CPU: "AMD EPYC 7713", Arch: "Zen 3",
		Sockets: 2, NUMANodes: 8, Cores: 128,
		FreqGHz: 2.00, BoostGHz: 2.50, IPC: 2.2, SIMDLanes64: 4, // AVX2
		L2PerCore: 512 * kib, LLCPerSocket: 256 * mib,
		BW1Core: 42.6, BWAllCores: 249,
		L2BWPerCore: 80, LLCBWSocket: 800,
		RemoteFactor: 0.6, FabricBW: 60,
	}
}

// hostCPU models the (unspecified) host driving the GPU machines; the
// paper only reports its compiler (g++ 10.2.1). A modest 16-core one-node
// host is assumed; Figures 8-9 compare against Mach A's CPUs anyway.
func hostCPU(name string) *Machine {
	return &Machine{
		Name: name, CPU: "host CPU (assumed 16-core)", Arch: "x86-64",
		Sockets: 1, NUMANodes: 1, Cores: 16,
		FreqGHz: 2.4, IPC: 2.0, SIMDLanes64: 4,
		L2PerCore: mib, LLCPerSocket: 20 * mib,
		BW1Core: 12, BWAllCores: 60,
		L2BWPerCore: 70, LLCBWSocket: 250,
		RemoteFactor: 1, FabricBW: 1e9,
	}
}

// MachD is the paper's Mach D: NVIDIA Tesla T4 (Turing), 2560 CUDA cores,
// 16 GiB, 264 GB/s measured STREAM.
func MachD() *Machine {
	m := hostCPU("Mach D (Tesla)")
	m.GPU = &GPU{
		Name: "NVIDIA Tesla T4", Arch: "Turing",
		SMs: 40, CoresPerSM: 64, FreqGHz: 1.11,
		DeviceBW: 264, MemBytes: 16 * gib,
		LinkBW: 12, LaunchLatency: 8e-6,
		PageFaultLatency: 25e-6, FaultBWFactor: 0.45,
	}
	return m
}

// MachE is the paper's Mach E: NVIDIA Ampere A2, 1280 CUDA cores, 8 GiB,
// 172 GB/s measured STREAM.
func MachE() *Machine {
	m := hostCPU("Mach E (Ampere)")
	m.GPU = &GPU{
		Name: "NVIDIA Ampere A2", Arch: "Ampere",
		SMs: 10, CoresPerSM: 128, FreqGHz: 1.77,
		DeviceBW: 172, MemBytes: 8 * gib,
		LinkBW: 12, LaunchLatency: 8e-6,
		PageFaultLatency: 25e-6, FaultBWFactor: 0.45,
	}
	return m
}

// MachF is an extension beyond the paper (its stated future work:
// "an extended analysis could include other architectures, such as ARM
// processors"): a single-socket ARM Neoverse-V1 server in the style of a
// Graviton3 — one NUMA node, no SMT, wide SIMD, and a flat memory system
// whose single-core bandwidth is a large fraction of the socket total.
func MachF() *Machine {
	return &Machine{
		Name: "Mach F (ARM)", CPU: "Neoverse V1 (Graviton3-class)", Arch: "ARMv8.4",
		Sockets: 1, NUMANodes: 1, Cores: 64,
		FreqGHz: 2.60, IPC: 2.2, SIMDLanes64: 4, // 2x256-bit SVE
		L2PerCore: mib, LLCPerSocket: 32 * mib,
		BW1Core: 28, BWAllCores: 300,
		L2BWPerCore: 90, LLCBWSocket: 600,
		RemoteFactor: 1, FabricBW: 1e9, // single node: no remote traffic
	}
}

// ByName returns the machine with the given short name (a, b, c, d, e, f),
// or nil if unknown.
func ByName(name string) *Machine {
	switch name {
	case "a", "A", "macha", "MachA":
		return MachA()
	case "b", "B", "machb", "MachB":
		return MachB()
	case "c", "C", "machc", "MachC":
		return MachC()
	case "d", "D", "machd", "MachD":
		return MachD()
	case "e", "E", "mache", "MachE":
		return MachE()
	case "f", "F", "machf", "MachF":
		return MachF()
	default:
		return nil
	}
}

// CPUs returns the three multi-core machines of the study.
func CPUs() []*Machine { return []*Machine{MachA(), MachB(), MachC()} }

// GPUs returns the two GPU machines of the study.
func GPUs() []*Machine { return []*Machine{MachD(), MachE()} }
