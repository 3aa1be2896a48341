package machine

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

func intrepidMachine(t *testing.T, ranks int) *Machine {
	t.Helper()
	m, err := New(sim.NewKernel(), xrand.New(1), Intrepid(ranks))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIntrepidPartitionShapes(t *testing.T) {
	cases := []struct {
		ranks, nodes, psets int
	}{
		{1024, 256, 4},
		{16384, 4096, 64},
		{32768, 8192, 128},
		{65536, 16384, 256},
	}
	for _, c := range cases {
		m := intrepidMachine(t, c.ranks)
		if m.NumNodes() != c.nodes {
			t.Errorf("ranks=%d: nodes %d, want %d", c.ranks, m.NumNodes(), c.nodes)
		}
		if m.NumPsets() != c.psets {
			t.Errorf("ranks=%d: psets %d, want %d", c.ranks, m.NumPsets(), c.psets)
		}
		if m.RanksPerPset() != 256 {
			t.Errorf("ranks=%d: ranks/pset %d, want 256", c.ranks, m.RanksPerPset())
		}
	}
}

func TestRankPlacement(t *testing.T) {
	m := intrepidMachine(t, 1024)
	// VN mode: four consecutive ranks per node.
	for r := 0; r < 1024; r++ {
		if got, want := m.NodeOfRank(r), r/4; got != want {
			t.Fatalf("rank %d on node %d, want %d", r, got, want)
		}
	}
	if m.PsetOfRank(0) != 0 {
		t.Fatal("rank 0 not in pset 0")
	}
	if m.PsetOfRank(255) != 0 || m.PsetOfRank(256) != 1 {
		t.Fatal("pset boundary not at rank 256")
	}
}

func TestEveryNodeHasPset(t *testing.T) {
	m := intrepidMachine(t, 4096)
	counts := make([]int, m.NumPsets())
	for n := 0; n < m.NumNodes(); n++ {
		counts[m.PsetOfNode(n)]++
	}
	for i, c := range counts {
		if c != 64 {
			t.Fatalf("pset %d has %d nodes, want 64", i, c)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{}, // zero everything
		func() Config { c := Intrepid(1000); return c }(),                     // 250 nodes, not power of two
		func() Config { c := Intrepid(1024); c.RanksPerNode = 3; return c }(), // not divisible
		func() Config { c := Intrepid(1024); c.NodesPerPset = 0; return c }(),
		func() Config { c := Intrepid(1024); c.CPUHz = 0; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := Intrepid(65536).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestRankOutOfRangePanics(t *testing.T) {
	m := intrepidMachine(t, 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	m.NodeOfRank(1024)
}

func TestBlueGeneLPreset(t *testing.T) {
	cfg := BlueGeneL(32768)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := MustNew(sim.NewKernel(), xrand.New(1), cfg)
	// 2 ranks/node, 32 nodes/pset: 16384 nodes, 512 psets.
	if m.NumNodes() != 16384 || m.NumPsets() != 512 {
		t.Fatalf("nodes %d psets %d", m.NumNodes(), m.NumPsets())
	}
	if m.RanksPerPset() != 64 {
		t.Fatalf("ranks/pset %d", m.RanksPerPset())
	}
	// Slower machine than BG/P everywhere it should be.
	p := Intrepid(32768)
	if cfg.CPUHz >= p.CPUHz || cfg.Link.LinkBW >= p.Link.LinkBW || cfg.Tree.BW >= p.Tree.BW {
		t.Fatal("BG/L not slower than BG/P")
	}
}
