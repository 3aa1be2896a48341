package machine

import "repro/internal/fabric"

// The Blue Gene presets. Intrepid is a 3-D torus topology, TXYZ rank
// placement, quad-core compute nodes, psets of 64 nodes funneled through
// one ION over the collective network, and 10 GbE from IONs toward the
// storage system, following the published system parameters: 4 cores per
// node ("virtual node" mode, so MPI ranks == cores), 64 nodes (256 ranks)
// per pset, 850 MHz cores, 425 MB/s torus links, ~850 MB/s collective
// network per pset, 10 GbE per ION. BlueGeneL is the authors' prior
// machine; the fattree and dragonfly presets are Intrepid with only the
// interconnect shape swapped, for what-if studies.

// Intrepid returns the configuration of an Intrepid partition with the given
// number of MPI ranks (must be a power of two and a multiple of 4).
func Intrepid(ranks int) Config {
	return Config{
		Ranks:        ranks,
		RanksPerNode: 4,
		NodesPerPset: 64,
		CPUHz:        850e6,
		Topology:     "torus",
		Placement:    "txyz",
		Link:         fabric.DefaultLinkConfig(),
		Tree:         fabric.DefaultTreeConfig(),
		Eth:          fabric.DefaultEthernetConfig(),
	}
}

// BlueGeneL returns the configuration of a Blue Gene/L partition, the
// machine of the authors' prior study (reference [3]): 700 MHz cores, two
// cores per node ("virtual node" mode), 1 ION per 32 compute nodes on the
// large ANL/SDSC-class systems, 175 MB/s torus links per direction and a
// ~350 MB/s collective network.
func BlueGeneL(ranks int) Config {
	cfg := Intrepid(ranks)
	cfg.RanksPerNode = 2
	cfg.NodesPerPset = 32
	cfg.CPUHz = 700e6
	cfg.Link.LinkBW = 175e6
	cfg.Link.InjectBW = 2.0e9
	cfg.Tree.BW = 350e6
	cfg.Eth.IONBw = 1e9 / 8 * 4 // ~0.5 GB/s per ION (4x less ION bandwidth)
	cfg.Eth.CoreBW = 8e9
	return cfg
}

func init() {
	Register(Descriptor{Name: "intrepid", Config: Intrepid})
	Register(Descriptor{Name: "bgl", Config: BlueGeneL})
	Register(Descriptor{
		Name: "fattree",
		Config: func(ranks int) Config {
			cfg := Intrepid(ranks)
			cfg.Topology = "fattree"
			return cfg
		},
	})
	Register(Descriptor{
		Name: "dragonfly",
		Config: func(ranks int) Config {
			cfg := Intrepid(ranks)
			cfg.Topology = "dragonfly"
			return cfg
		},
	})
}
