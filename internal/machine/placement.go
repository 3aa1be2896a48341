package machine

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/xrand"
)

// Placement is the rank→node mapping seam. On the real machines the mapping
// file (TXYZ, XYZT, ...) decides which ranks share a node and how far apart
// communicating ranks sit on the fabric, which shifts both torus contention
// and pset membership; here it is a first-class policy.
//
// Every policy fills each node with exactly RanksPerNode ranks, so pset
// population (and therefore ION load) stays uniform; what changes is which
// ranks land together.
type Placement interface {
	// NodeOf returns the compute node of a rank in [0, ranks).
	NodeOf(rank int) int
}

// tablePlacement is a precomputed rank→node table; all policies compile to
// one so NodeOf stays a single load on hot paths.
type tablePlacement struct {
	node []int
}

func (p *tablePlacement) NodeOf(rank int) int { return p.node[rank] }

// defaultPlacement is the policy the empty name selects: the Blue Gene
// default mapping.
const defaultPlacement = "txyz"

// placements holds the policies' table builders over (ranks, nodes,
// ranksPerNode, seed).
var placements = registry.New[func(ranks, nodes, rpn int, seed uint64) []int]("machine placement", defaultPlacement)

func init() {
	// txyz is the Blue Gene default mapping this repo has always simulated:
	// ranks fill a node's cores before moving to the next node, so a node's
	// rpn ranks are consecutive.
	placements.Register("txyz", func(ranks, nodes, rpn int, _ uint64) []int {
		return buildTable(ranks, func(r int) int { return r / rpn })
	})
	// xyzt cycles ranks across nodes first: consecutive ranks land on
	// consecutive nodes, wrapping every nodes ranks.
	placements.Register("xyzt", func(ranks, nodes, rpn int, _ uint64) []int {
		return buildTable(ranks, func(r int) int { return r % nodes })
	})
	// blocked is block-cyclic with half-node blocks (max(1, rpn/2)): pairs
	// of ranks stay together but node fills interleave, a middle ground
	// between txyz and xyzt.
	placements.Register("blocked", func(ranks, nodes, rpn int, _ uint64) []int {
		blk := rpn / 2
		if blk < 1 {
			blk = 1
		}
		return buildTable(ranks, func(r int) int { return (r / blk) % nodes })
	})
	// roundrobin deals ranks to nodes like cards. On this repo's row-major
	// tori it lands on the same table as xyzt (both are rank mod nodes); it
	// is registered separately because the two differ on machines whose
	// node numbering is not row-major.
	placements.Register("roundrobin", func(ranks, nodes, rpn int, _ uint64) []int {
		return buildTable(ranks, func(r int) int { return r % nodes })
	})
	// random applies a seeded Fisher–Yates shuffle to the txyz assignment:
	// capacity per node is preserved, locality is destroyed. The shuffle
	// draws from its own xrand stream — never the machine RNG, whose split
	// order is pinned by the determinism goldens.
	placements.Register("random", func(ranks, nodes, rpn int, seed uint64) []int {
		perm := xrand.New(seed | 1).Perm(ranks)
		return buildTable(ranks, func(r int) int { return perm[r] / rpn })
	})
}

func buildTable(ranks int, nodeOf func(rank int) int) []int {
	t := make([]int, ranks)
	for r := range t {
		t[r] = nodeOf(r)
	}
	return t
}

// PlacementNames returns the valid Config.Placement values, sorted.
func PlacementNames() []string { return placements.Names() }

// NewPlacement builds the named rank→node policy. The empty name selects
// txyz (the Blue Gene default). seed only affects the "random" policy.
// Unknown names fail with a typed *registry.UnknownError.
func NewPlacement(name string, ranks, nodes, rpn int, seed uint64) (Placement, error) {
	if name == "" {
		name = defaultPlacement
	}
	table, err := placements.Lookup(name)
	if err != nil {
		return nil, err
	}
	if ranks != nodes*rpn {
		return nil, fmt.Errorf("machine: placement %q: %d ranks != %d nodes * %d ranks/node", name, ranks, nodes, rpn)
	}
	return &tablePlacement{node: table(ranks, nodes, rpn, seed)}, nil
}
