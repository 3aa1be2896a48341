// Package machine is the composable machine-model layer: it assembles a
// simulated parallel computer from three policy seams —
//
//   - Topology: the interconnect's shape. A graph of vertices (compute
//     nodes first, internal switches/routers after) with a dense directed
//     link index, minimal routing, and hop distances. Implementations:
//     the 3-D torus, a two-level fat tree, and a dragonfly.
//   - Placement: the rank→node mapping policy (TXYZ, XYZT, blocked,
//     round-robin, seeded-random). Transfer costs between ranks depend on
//     where the ranks land, so the mapping is a first-class experimental
//     variable, as it is on the real machines.
//   - Interconnect: a link-graph cost engine that prices a message over
//     any Topology's route with per-link FIFO contention, virtual
//     cut-through arithmetic and trace counters.
//
// A concrete machine (internal/bgp's Intrepid, BlueGeneL, and the
// fat-tree/dragonfly what-if variants) is a Config composing one choice per
// seam plus the I/O-side fabrics (pset tree funnels, Ethernet); presets
// self-register in the machine registry (registry.go) and are selected by
// name (iobench -machine). Topologies, placements and presets are each a
// registry.Registry.
package machine

import "repro/internal/registry"

// Topology is the interconnect-shape seam: a directed graph over vertices
// 0..NumVertices-1, of which the first Nodes() are compute nodes and any
// higher ids are internal switches/routers. Links are identified by a dense
// index in [0, NumLinks()), suitable for indexing flat per-link state.
//
// Routes are minimal and deterministic: the same (a, b) pair always yields
// the same link sequence, a requirement of the simulator's bit-reproducible
// determinism contract. Implementations keep no mutable state, so the
// partitioned kernel's lanes route through one shared Topology.
type Topology interface {
	// Name is the topology's registry tag ("torus", "fattree", "dragonfly");
	// it prefixes the interconnect's trace counters (e.g. "torus.msgs").
	Name() string
	// Nodes returns the number of compute nodes (vertex ids [0, Nodes())).
	Nodes() int
	// NumLinks returns the number of directed links; link indices are dense
	// in [0, NumLinks()).
	NumLinks() int
	// Link returns the directed link's endpoints (vertex ids).
	Link(idx int) (from, to int)
	// Distance returns the minimal hop (link) count between two compute
	// nodes. Distance(a, a) is 0.
	Distance(a, b int) int
	// AppendRoute appends the dense link indices of the minimal route from
	// compute node a to compute node b to dst and returns it. Routing a
	// node to itself appends nothing. Reusing one dst slice across calls
	// keeps hot transfer paths allocation-free.
	AppendRoute(dst []int, a, b int) []int
}

// Route returns the a→b route of t as a fresh slice of link indices.
func Route(t Topology, a, b int) []int {
	return t.AppendRoute(make([]int, 0, t.Distance(a, b)), a, b)
}

// topologies holds the constructors over a node count; the empty name
// selects the torus (the Blue Gene default).
var topologies = registry.New[func(nodes int) Topology]("machine topology", "torus")

func init() {
	topologies.Register("torus", func(n int) Topology { return TorusDims(n) })
	topologies.Register("fattree", func(n int) Topology { return NewFatTree(n) })
	topologies.Register("dragonfly", func(n int) Topology { return NewDragonfly(n) })
}

// TopologyNames returns the valid Config.Topology values, sorted.
func TopologyNames() []string { return topologies.Names() }

// NewTopology builds the named topology over the given node count. Unknown
// names fail with a typed *registry.UnknownError.
func NewTopology(name string, nodes int) (Topology, error) {
	fn, err := topologies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return fn(nodes), nil
}
