package machine

// Lookahead support for the partitioned simulation kernel: the machine is
// sharded one partition per pset, and partitions may only run ahead of each
// other by the minimum latency any cross-pset message can experience. This
// file extracts that bound from the composed Topology and link physics, and
// decides which psets' internal traffic is safe to price from a lane at all.

import "repro/internal/fabric"

// Lookahead returns the conservative lookahead window for pset-partitioned
// simulation: the smallest virtual latency any message between two nodes of
// different psets can experience (software injection overhead plus the
// per-hop router delays of the shortest possible cross-pset route).
// Contention and serialization only add to it, so no cross-pset influence
// scheduled at time t can take effect before t + Lookahead().
func (m *Machine) Lookahead() float64 {
	return fabric.MinLatency(m.minCrossPsetHops())
}

// minCrossPsetHops returns a lower bound on the number of links any
// cross-pset message traverses. A direct compute-to-compute link between
// psets (torus neighbors across a pset boundary) gives 1; topologies whose
// routes pass through switch vertices (fat tree, dragonfly) have no such
// link, so every cross-pset route is at least two links long.
func (m *Machine) minCrossPsetHops() int {
	if m.numPsets <= 1 {
		return 1
	}
	t := m.Topo
	n := t.Nodes()
	for idx := 0; idx < t.NumLinks(); idx++ {
		from, to := t.Link(idx)
		if from < n && to < n && m.PsetOfNode(from) != m.PsetOfNode(to) {
			return 1
		}
	}
	return 2
}

// RouteSafePsets reports, per pset, whether the partitioned kernel may
// price that pset's internal messages from its own lane: every link any
// intra-pset route traverses must be traversed by no other pset's
// intra-pset routes, so concurrent lanes never touch the same link's
// contention state and the per-link arithmetic keeps its serial order.
// The check is exhaustive — every ordered node pair of every pset is
// routed — because route shapes (torus wrap, D-mod-k spine selection,
// dragonfly gateways) make closed-form closure arguments fragile.
//
// Contention is per directed link, so all three canonical topologies pass
// when pset boundaries align with the structural units (torus rows/planes,
// whole leaves, whole groups) — the usual power-of-two configurations.
// Psets that split a leaf or group share spine/global links and fail;
// their internal traffic is priced on the exclusive lane instead (correct,
// just not parallel).
func (m *Machine) RouteSafePsets() []bool {
	safe := make([]bool, m.numPsets)
	owner := make([]int32, m.Topo.NumLinks())
	for i := range owner {
		owner[i] = -1
	}
	for p := range safe {
		safe[p] = true
	}
	var route []int
	for p := 0; p < m.numPsets; p++ {
		lo := p * m.Cfg.NodesPerPset
		hi := lo + m.Cfg.NodesPerPset
		if hi > m.numNodes {
			hi = m.numNodes
		}
		for a := lo; a < hi; a++ {
			for b := lo; b < hi; b++ {
				if a == b {
					continue
				}
				route = m.Topo.AppendRoute(route[:0], a, b)
				for _, l := range route {
					switch owner[l] {
					case -1:
						owner[l] = int32(p)
					case int32(p):
					default:
						safe[p] = false
						safe[owner[l]] = false
					}
				}
			}
		}
	}
	return safe
}
