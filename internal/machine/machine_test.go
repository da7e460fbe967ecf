package machine

import "testing"

func TestTable2Parameters(t *testing.T) {
	// The machine models must reproduce the paper's Table 2.
	cases := []struct {
		m          *Machine
		cores      int
		numa       int
		sockets    int
		bw1, bwAll float64
	}{
		{MachA(), 32, 2, 2, 11.7, 135},
		{MachB(), 64, 8, 2, 26.0, 204},
		{MachC(), 128, 8, 2, 42.6, 249},
	}
	for _, c := range cases {
		if c.m.Cores != c.cores || c.m.NUMANodes != c.numa || c.m.Sockets != c.sockets {
			t.Errorf("%s: topology %d/%d/%d", c.m.Name, c.m.Cores, c.m.NUMANodes, c.m.Sockets)
		}
		if c.m.BW1Core != c.bw1 || c.m.BWAllCores != c.bwAll {
			t.Errorf("%s: STREAM %v/%v", c.m.Name, c.m.BW1Core, c.m.BWAllCores)
		}
	}
}

func TestGPUTable2Parameters(t *testing.T) {
	d, e := MachD(), MachE()
	if d.GPU == nil || e.GPU == nil {
		t.Fatal("GPU machines missing GPU")
	}
	if got := d.GPU.SMs * d.GPU.CoresPerSM; got != 2560 {
		t.Errorf("T4 cores = %d, want 2560", got)
	}
	if got := e.GPU.SMs * e.GPU.CoresPerSM; got != 1280 {
		t.Errorf("A2 cores = %d, want 1280", got)
	}
	if d.GPU.DeviceBW != 264 || e.GPU.DeviceBW != 172 {
		t.Errorf("GPU STREAM BW: %v / %v", d.GPU.DeviceBW, e.GPU.DeviceBW)
	}
	if d.GPU.FreqGHz != 1.11 || e.GPU.FreqGHz != 1.77 {
		t.Errorf("GPU freq: %v / %v", d.GPU.FreqGHz, e.GPU.FreqGHz)
	}
}

func TestNodeOfBlockAssignment(t *testing.T) {
	m := MachB() // 64 cores, 8 nodes -> 8 cores per node
	for c := 0; c < m.Cores; c++ {
		if got, want := m.NodeOf(c), c/8; got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", c, got, want)
		}
	}
	if m.SocketOf(0) != 0 || m.SocketOf(63) != 1 || m.SocketOf(31) != 0 || m.SocketOf(32) != 1 {
		t.Fatal("SocketOf wrong")
	}
}

func TestRaggedTopologyAssignment(t *testing.T) {
	// A deliberately ragged machine: 10 cores over 4 nodes and 3 sockets.
	// Block assignment gives the leading groups one extra item: node sizes
	// 3,3,2,2 and socket sizes 4,3,3.
	m := &Machine{Name: "ragged", Cores: 10, NUMANodes: 4, Sockets: 3}
	wantNode := []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	wantSock := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	nodeSeen := make(map[int]int)
	sockSeen := make(map[int]int)
	for c := 0; c < m.Cores; c++ {
		if got := m.NodeOf(c); got != wantNode[c] {
			t.Errorf("NodeOf(%d) = %d, want %d", c, got, wantNode[c])
		}
		if got := m.SocketOf(c); got != wantSock[c] {
			t.Errorf("SocketOf(%d) = %d, want %d", c, got, wantSock[c])
		}
		nodeSeen[m.NodeOf(c)]++
		sockSeen[m.SocketOf(c)]++
	}
	// Every node and socket is populated and sizes differ by at most one.
	if len(nodeSeen) != m.NUMANodes || len(sockSeen) != m.Sockets {
		t.Fatalf("populated nodes=%d sockets=%d", len(nodeSeen), len(sockSeen))
	}
	for g, sizes := range map[string]map[int]int{"node": nodeSeen, "socket": sockSeen} {
		min, max := m.Cores, 0
		for _, n := range sizes {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("%s sizes unbalanced: min=%d max=%d", g, min, max)
		}
	}
	// More groups than cores: every core still maps in range, no division
	// by zero.
	tiny := &Machine{Name: "tiny", Cores: 3, NUMANodes: 5, Sockets: 5}
	for c := 0; c < tiny.Cores; c++ {
		if n := tiny.NodeOf(c); n < 0 || n >= tiny.NUMANodes {
			t.Fatalf("tiny NodeOf(%d) = %d out of range", c, n)
		}
	}
}

func TestSocketOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MachA().SocketOf(-1)
}

func TestNodeOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MachA().NodeOf(32)
}

func TestThreadCounts(t *testing.T) {
	got := MachA().ThreadCounts()
	want := []int{1, 2, 4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("ThreadCounts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ThreadCounts = %v, want %v", got, want)
		}
	}
	// 128 cores: powers of two up to 128.
	c := MachC().ThreadCounts()
	if c[len(c)-1] != 128 || len(c) != 8 {
		t.Fatalf("MachC ThreadCounts = %v", c)
	}
}

func TestNodeBW(t *testing.T) {
	if got := MachA().NodeBW(); got != 67.5 {
		t.Fatalf("MachA NodeBW = %v", got)
	}
	if got := MachB().NodeBW(); got != 25.5 {
		t.Fatalf("MachB NodeBW = %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("z") != nil {
		t.Error("ByName(z) should be nil")
	}
	if len(CPUs()) != 3 || len(GPUs()) != 2 {
		t.Error("CPUs/GPUs counts wrong")
	}
}
