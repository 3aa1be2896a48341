package machine

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Config describes a machine partition: one choice per policy seam plus the
// physical parameters of the compute fabric and the I/O path.
type Config struct {
	Ranks        int // MPI processes; one per core in VN mode
	RanksPerNode int // cores per compute node (4 on BG/P)
	NodesPerPset int // compute nodes per I/O node (64 on Intrepid)
	CPUHz        float64

	Topology      string // interconnect shape; "" = "torus"
	Placement     string // rank→node mapping; "" = "txyz"
	PlacementSeed uint64 // only the "random" placement consumes it

	Link fabric.LinkConfig // compute-interconnect physics
	Tree fabric.TreeConfig
	Eth  fabric.EthernetConfig
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("machine: ranks must be positive, got %d", c.Ranks)
	}
	if c.RanksPerNode <= 0 || c.Ranks%c.RanksPerNode != 0 {
		return fmt.Errorf("machine: ranks %d not divisible by ranks-per-node %d", c.Ranks, c.RanksPerNode)
	}
	nodes := c.Ranks / c.RanksPerNode
	if nodes&(nodes-1) != 0 {
		return fmt.Errorf("machine: node count %d is not a power of two", nodes)
	}
	if c.NodesPerPset <= 0 {
		return fmt.Errorf("machine: nodes-per-pset must be positive, got %d", c.NodesPerPset)
	}
	if c.CPUHz <= 0 {
		return fmt.Errorf("machine: CPU frequency must be positive")
	}
	if _, err := topologies.Lookup(c.Topology); err != nil {
		return err
	}
	_, err := placements.Lookup(c.Placement)
	return err
}

// Machine is a built partition: the three seams composed and all fabrics
// instantiated over a shared simulation kernel.
type Machine struct {
	Cfg  Config
	K    *sim.Kernel
	RNG  *xrand.RNG // machine-level noise stream
	Topo Topology
	Net  *Interconnect
	Tree *fabric.Tree
	Eth  *fabric.Ethernet

	place    Placement
	numNodes int
	numPsets int

	// allocs holds the live tenant slices when an Allocator was built over
	// the machine (sorted by base rank); nil in single-tenant mode, where
	// rank resolution takes the historical whole-machine placement path.
	allocs []*Alloc
}

// New builds a machine for the given configuration on the kernel. The RNG
// seeds all machine-level nondeterminism (OS noise, storage noise); the
// placement's own seed is separate, so choosing a mapping never perturbs the
// noise stream.
func New(k *sim.Kernel, rng *xrand.RNG, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Ranks / cfg.RanksPerNode
	psets := (nodes + cfg.NodesPerPset - 1) / cfg.NodesPerPset
	t, err := NewTopology(cfg.Topology, nodes)
	if err != nil {
		return nil, err
	}
	place, err := NewPlacement(cfg.Placement, cfg.Ranks, nodes, cfg.RanksPerNode, cfg.PlacementSeed)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:      cfg,
		K:        k,
		RNG:      rng,
		Topo:     t,
		Net:      NewInterconnect(t, cfg.Link),
		Tree:     fabric.NewTree(psets, cfg.Tree),
		Eth:      fabric.NewEthernet(psets, cfg.Eth),
		place:    place,
		numNodes: nodes,
		numPsets: psets,
	}
	if rec := k.Recorder(); rec != nil {
		// Attach the kernel's recorder before the machine is used, so every
		// fabric transfer of the run is captured. SetRecorder must therefore
		// precede New — exp's run builder does this.
		m.Net.Instrument(rec)
		for i := 0; i < psets; i++ {
			m.Tree.Pset(i).Instrument(rec, trace.LayerFabric, "ion.funnel", i)
			m.Eth.NIC(i).Instrument(rec, trace.LayerFabric, "eth.nic", i)
		}
		m.Eth.Core().Instrument(rec, trace.LayerFabric, "eth.core", 0)
	}
	return m, nil
}

// MustNew is New, panicking on configuration errors. Intended for tests and
// examples with known-good configs.
func MustNew(k *sim.Kernel, rng *xrand.RNG, cfg Config) *Machine {
	m, err := New(k, rng, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumNodes returns the number of compute nodes in the partition.
func (m *Machine) NumNodes() int { return m.numNodes }

// NumPsets returns the number of psets (== IONs) in the partition.
func (m *Machine) NumPsets() int { return m.numPsets }

// NodeOfRank returns the compute node hosting an MPI rank, as decided by the
// placement policy (the txyz default packs ranks onto nodes in order: VN
// mode ranks 4k..4k+3 share node k, the default BG/P mapping).
func (m *Machine) NodeOfRank(rank int) int {
	if rank < 0 || rank >= m.Cfg.Ranks {
		panic(fmt.Sprintf("machine: rank %d out of range [0,%d)", rank, m.Cfg.Ranks))
	}
	if m.allocs != nil {
		a := m.AllocOfRank(rank)
		if a == nil {
			panic(fmt.Sprintf("machine: rank %d belongs to no live alloc", rank))
		}
		return a.nodeOfGlobal(rank)
	}
	return m.place.NodeOf(rank)
}

// PsetOfNode returns the pset index of a compute node.
func (m *Machine) PsetOfNode(node int) int {
	if node < 0 || node >= m.numNodes {
		panic(fmt.Sprintf("machine: node %d out of range [0,%d)", node, m.numNodes))
	}
	return node / m.Cfg.NodesPerPset
}

// PsetOfRank returns the pset index of an MPI rank.
func (m *Machine) PsetOfRank(rank int) int {
	return m.PsetOfNode(m.NodeOfRank(rank))
}

// RanksPerPset returns the number of MPI ranks sharing one ION.
func (m *Machine) RanksPerPset() int {
	return m.Cfg.NodesPerPset * m.Cfg.RanksPerNode
}
