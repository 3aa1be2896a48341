package machine

import (
	"fmt"
	"sort"
)

// Alloc is one tenant's slice of a machine: a contiguous, pset-aligned span
// of compute nodes with its own rank→node placement over the slice. Rank ids
// stay machine-global — an alloc owns the ids [BaseRank, BaseRank+Ranks) —
// so every layer that attributes work by rank (storage clients, fault
// injection, trace tracks) keeps working unchanged under multi-tenancy.
type Alloc struct {
	m        *Machine
	baseNode int // first node of the reserved span
	spanN    int // reserved nodes (a multiple of NodesPerPset)
	baseRank int
	ranks    int
	place    Placement // local table: NodeOf(localRank) in [0, ranks / RanksPerNode)
}

// Machine returns the machine the slice was carved from.
func (a *Alloc) Machine() *Machine { return a.m }

// BaseRank returns the first global rank id owned by the slice.
func (a *Alloc) BaseRank() int { return a.baseRank }

// Ranks returns the number of ranks the slice hosts.
func (a *Alloc) Ranks() int { return a.ranks }

// BaseNode returns the first global node of the reserved span.
func (a *Alloc) BaseNode() int { return a.baseNode }

// Psets returns the half-open global pset range [lo, hi) the span covers.
// Spans are pset-aligned, so no two live allocs ever share a pset: each
// tenant gets its own ION funnels and NICs, and contention between tenants
// happens only where the real machine shares hardware — the Ethernet core
// and the file servers.
func (a *Alloc) Psets() (lo, hi int) {
	npp := a.m.Cfg.NodesPerPset
	return a.baseNode / npp, (a.baseNode + a.spanN) / npp
}

// ContainsRank reports whether the global rank id belongs to this slice.
func (a *Alloc) ContainsRank(rank int) bool {
	return rank >= a.baseRank && rank < a.baseRank+a.ranks
}

// nodeOfGlobal resolves a global rank id owned by this alloc to its global
// compute node through the slice-local placement table.
func (a *Alloc) nodeOfGlobal(rank int) int {
	return a.baseNode + a.place.NodeOf(rank-a.baseRank)
}

// Allocator carves disjoint pset-aligned node spans out of one machine for
// concurrent tenants. It is not safe for concurrent use; under a sharded
// kernel all allocation must happen before the kernel runs (the cluster
// scheduler enforces this).
type Allocator struct {
	m    *Machine
	free []nodeSpan // sorted by start, coalesced
}

type nodeSpan struct{ start, n int }

// NewAllocator returns an allocator over all of m's compute nodes. Building
// one flips the machine into allocated mode: NodeOfRank resolves through
// tenant slices from then on, and panics for rank ids no live slice owns.
func NewAllocator(m *Machine) *Allocator {
	if m.allocs == nil {
		m.allocs = []*Alloc{}
	}
	return &Allocator{m: m, free: []nodeSpan{{0, m.numNodes}}}
}

// FreeNodes returns the number of currently unreserved nodes.
func (al *Allocator) FreeNodes() int {
	n := 0
	for _, s := range al.free {
		n += s.n
	}
	return n
}

// Alloc reserves a slice for ranks processes using the named placement
// policy ("" = txyz) over the slice. ranks must be a positive multiple of
// RanksPerNode; the reserved span is rounded up to a whole number of psets.
// Returns an error when no contiguous span is free (the caller queues and
// retries after a Free).
func (al *Allocator) Alloc(name string, ranks int, placement string, seed uint64) (*Alloc, error) {
	cfg := al.m.Cfg
	if ranks <= 0 || ranks%cfg.RanksPerNode != 0 {
		return nil, fmt.Errorf("machine: alloc %q: ranks %d not a positive multiple of ranks-per-node %d", name, ranks, cfg.RanksPerNode)
	}
	used := ranks / cfg.RanksPerNode
	span := (used + cfg.NodesPerPset - 1) / cfg.NodesPerPset * cfg.NodesPerPset
	idx := -1
	for i, s := range al.free {
		if s.n >= span {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("machine: alloc %q: no free span of %d nodes (%d free in %d fragments)", name, span, al.FreeNodes(), len(al.free))
	}
	start := al.free[idx].start
	al.free[idx].start += span
	al.free[idx].n -= span
	if al.free[idx].n == 0 {
		al.free = append(al.free[:idx], al.free[idx+1:]...)
	}
	place, err := NewPlacement(placement, ranks, used, cfg.RanksPerNode, seed)
	if err != nil {
		return nil, err
	}
	a := &Alloc{
		m:        al.m,
		baseNode: start,
		spanN:    span,
		baseRank: start * cfg.RanksPerNode,
		ranks:    ranks,
		place:    place,
	}
	al.m.addAlloc(a)
	return a, nil
}

// Free returns a slice's span to the allocator and retires its rank ids.
// Freeing a slice not owned by this allocator's machine panics.
func (al *Allocator) Free(a *Alloc) {
	if a.m != al.m {
		panic("machine: Free of alloc from another machine")
	}
	al.m.removeAlloc(a)
	// Insert the span back in start order and coalesce with neighbours.
	i := sort.Search(len(al.free), func(i int) bool { return al.free[i].start >= a.baseNode })
	al.free = append(al.free, nodeSpan{})
	copy(al.free[i+1:], al.free[i:])
	al.free[i] = nodeSpan{start: a.baseNode, n: a.spanN}
	if i+1 < len(al.free) && al.free[i].start+al.free[i].n == al.free[i+1].start {
		al.free[i].n += al.free[i+1].n
		al.free = append(al.free[:i+1], al.free[i+2:]...)
	}
	if i > 0 && al.free[i-1].start+al.free[i-1].n == al.free[i].start {
		al.free[i-1].n += al.free[i].n
		al.free = append(al.free[:i], al.free[i+1:]...)
	}
}

// addAlloc installs a live slice, keeping the list sorted by base rank.
func (m *Machine) addAlloc(a *Alloc) {
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].baseRank >= a.baseRank })
	m.allocs = append(m.allocs, nil)
	copy(m.allocs[i+1:], m.allocs[i:])
	m.allocs[i] = a
}

func (m *Machine) removeAlloc(a *Alloc) {
	for i, b := range m.allocs {
		if b == a {
			m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
			return
		}
	}
	panic("machine: removeAlloc of unknown alloc")
}

// Allocated reports whether the machine is in allocated (multi-tenant)
// mode — an allocator was built over it.
func (m *Machine) Allocated() bool { return m.allocs != nil }

// Allocs returns the live tenant slices sorted by base rank. The slice is
// the machine's own; callers must not mutate it.
func (m *Machine) Allocs() []*Alloc { return m.allocs }

// AllocOfRank returns the live slice owning a global rank id, or nil when
// the machine is unallocated or no slice owns the id.
func (m *Machine) AllocOfRank(rank int) *Alloc {
	// Tenant counts are small (≤ tens); binary search keeps this cheap on
	// the storage hot path without a per-rank table to maintain.
	lo, hi := 0, len(m.allocs)
	for lo < hi {
		mid := (lo + hi) / 2
		a := m.allocs[mid]
		if rank < a.baseRank {
			hi = mid
		} else if rank >= a.baseRank+a.ranks {
			lo = mid + 1
		} else {
			return a
		}
	}
	return nil
}
