package machine

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func lookaheadTestMachine(t *testing.T, topology string, ranks int) *Machine {
	t.Helper()
	k := sim.NewKernel()
	m, err := New(k, xrand.New(1), Config{
		Ranks:        ranks,
		RanksPerNode: 4,
		NodesPerPset: 16,
		CPUHz:        850e6,
		Topology:     topology,
		Link:         fabric.DefaultLinkConfig(),
		Tree:         fabric.DefaultTreeConfig(),
		Eth:          fabric.DefaultEthernetConfig(),
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

// TestLookaheadBoundsCrossPsetDeltas pins the CMB safety property the
// partitioned kernel relies on: the computed lookahead never exceeds the
// send-to-arrival delta of any cross-pset message, for every topology, on
// both the analytic minimum (Distance * hop latency + injection overhead)
// and actual priced transfers on a cold fabric.
func TestLookaheadBoundsCrossPsetDeltas(t *testing.T) {
	for _, topology := range TopologyNames() {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			m := lookaheadTestMachine(t, topology, 512) // 128 nodes, 8 psets
			la := m.Lookahead()
			if la <= 0 {
				t.Fatalf("lookahead %v not positive", la)
			}
			for a := 0; a < m.NumNodes(); a++ {
				for b := 0; b < m.NumNodes(); b++ {
					if m.PsetOfNode(a) == m.PsetOfNode(b) {
						continue
					}
					min := fabric.InjectLat + float64(m.Topo.Distance(a, b))*fabric.HopLatency
					if la > min {
						t.Fatalf("lookahead %v exceeds analytic minimum %v for %d->%d", la, min, a, b)
					}
				}
			}
			// Priced transfers (contention, serialization) only add delay.
			rng := xrand.New(7)
			for trial := 0; trial < 200; trial++ {
				a := int(rng.Uint64() % uint64(m.NumNodes()))
				b := int(rng.Uint64() % uint64(m.NumNodes()))
				if m.PsetOfNode(a) == m.PsetOfNode(b) {
					continue
				}
				now := float64(trial) * 1e-5
				start := m.Net.Inject(now, a, 1024)
				arrival := m.Net.Transfer(start, a, b, 1024)
				if arrival-now < la {
					t.Fatalf("transfer %d->%d delta %v below lookahead %v", a, b, arrival-now, la)
				}
			}
		})
	}
}

// TestRouteSafePsets pins the lane-safety gate: contention is per directed
// link, so psets aligned with the topology's structural units (torus
// rows/planes, whole fat-tree leaves, whole dragonfly groups) keep their
// internal routes on private links for all three topologies, while a pset
// layout that splits a leaf shares spine links and must be declared unsafe.
func TestRouteSafePsets(t *testing.T) {
	for _, topology := range TopologyNames() {
		m := lookaheadTestMachine(t, topology, 512)
		safe := m.RouteSafePsets()
		if len(safe) != m.NumPsets() {
			t.Fatalf("%s: %d entries for %d psets", topology, len(safe), m.NumPsets())
		}
		for p, s := range safe {
			if !s {
				t.Errorf("%s: aligned pset %d not route-safe", topology, p)
			}
		}
	}
	// Misaligned: 64 fat-tree nodes with 24-node psets split leaf 1 between
	// psets 0 and 1; both route cross-leaf through leaf 1's spine links.
	k := sim.NewKernel()
	m, err := New(k, xrand.New(1), Config{
		Ranks: 256, RanksPerNode: 4, NodesPerPset: 24, CPUHz: 850e6,
		Topology: "fattree",
		Link:     fabric.DefaultLinkConfig(),
		Tree:     fabric.DefaultTreeConfig(),
		Eth:      fabric.DefaultEthernetConfig(),
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	safe := m.RouteSafePsets()
	if safe[0] || safe[1] {
		t.Errorf("split-leaf psets should be unsafe, got %v", safe)
	}
}

// TestRouteSafetyMeansDisjointLinks cross-checks the gate's meaning
// directly: on a route-safe machine, the union of links used by one pset's
// intra-pset routes never intersects another's.
func TestRouteSafetyMeansDisjointLinks(t *testing.T) {
	m := lookaheadTestMachine(t, "torus", 1024) // 256 nodes, 16 psets
	for _, s := range m.RouteSafePsets() {
		if !s {
			t.Fatal("expected torus psets to be route-safe")
		}
	}
	owner := make(map[int]int)
	var route []int
	per := m.Cfg.NodesPerPset
	for p := 0; p < m.NumPsets(); p++ {
		for a := p * per; a < (p+1)*per; a++ {
			for b := p * per; b < (p+1)*per; b++ {
				if a == b {
					continue
				}
				route = m.Topo.AppendRoute(route[:0], a, b)
				for _, l := range route {
					if prev, ok := owner[l]; ok && prev != p {
						t.Fatalf("link %d used by psets %d and %d", l, prev, p)
					}
					owner[l] = p
				}
			}
		}
	}
}

// TestPortMatchesInterconnect pins that pricing a message through a Port is
// arithmetically identical to the engine's own Transfer, including under
// queueing, so lane-local traffic reproduces serial numbers exactly.
func TestPortMatchesInterconnect(t *testing.T) {
	for _, topology := range TopologyNames() {
		a := lookaheadTestMachine(t, topology, 256)
		b := lookaheadTestMachine(t, topology, 256)
		port := b.Net.NewPort()
		rng := xrand.New(11)
		for i := 0; i < 500; i++ {
			src := int(rng.Uint64() % uint64(a.NumNodes()))
			dst := int(rng.Uint64() % uint64(a.NumNodes()))
			now := float64(i) * 3e-6
			size := int64(64 + rng.Uint64()%8192)
			s1 := a.Net.Inject(now, src, size)
			s2 := port.Inject(now, src, size)
			if s1 != s2 {
				t.Fatalf("%s: inject diverged at %d: %v vs %v", topology, i, s1, s2)
			}
			a1 := a.Net.Transfer(s1, src, dst, size)
			a2 := port.Transfer(s2, src, dst, size)
			if a1 != a2 {
				t.Fatalf("%s: arrival diverged at %d: %v vs %v", topology, i, a1, a2)
			}
		}
	}
}
