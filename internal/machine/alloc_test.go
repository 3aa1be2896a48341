package machine

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// allocTestMachine builds a 256-node, 16-pset machine (1024 ranks in VN
// mode) — big enough for several tenants, small enough to enumerate.
func allocTestMachine(t *testing.T) *Machine {
	t.Helper()
	k := sim.NewKernel()
	m, err := New(k, xrand.New(1), Config{
		Ranks:        1024,
		RanksPerNode: 4,
		NodesPerPset: 16,
		CPUHz:        850e6,
		Link:         fabric.DefaultLinkConfig(),
		Tree:         fabric.DefaultTreeConfig(),
		Eth:          fabric.DefaultEthernetConfig(),
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

// TestAllocSpanRounding pins the pset alignment contract: a job that does
// not fill its last pset still reserves whole psets, so no two tenants ever
// share an ION.
func TestAllocSpanRounding(t *testing.T) {
	m := allocTestMachine(t)
	if m.Allocated() {
		t.Fatal("machine allocated before an allocator was built")
	}
	al := NewAllocator(m)
	if !m.Allocated() {
		t.Fatal("machine not in allocated mode after NewAllocator")
	}
	if al.FreeNodes() != 256 {
		t.Fatalf("free nodes %d, want 256", al.FreeNodes())
	}

	// 64 ranks = 16 nodes = exactly one pset: no rounding.
	a, err := al.Alloc("exact", 64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.spanN != 16 || a.BaseNode() != 0 || a.BaseRank() != 0 || a.Ranks() != 64 {
		t.Fatalf("exact alloc: nodes=%d base=%d rank=%d ranks=%d", a.spanN, a.BaseNode(), a.BaseRank(), a.Ranks())
	}
	if lo, hi := a.Psets(); lo != 0 || hi != 1 {
		t.Fatalf("exact alloc psets [%d,%d), want [0,1)", lo, hi)
	}

	// 68 ranks = 17 nodes: rounds up to two psets (32 nodes), and the next
	// tenant starts on the following pset boundary.
	b, err := al.Alloc("rounded", 68, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.spanN != 32 || b.BaseNode() != 16 {
		t.Fatalf("rounded alloc: nodes=%d base=%d, want 32 at 16", b.spanN, b.BaseNode())
	}
	if lo, hi := b.Psets(); lo != 1 || hi != 3 {
		t.Fatalf("rounded alloc psets [%d,%d), want [1,3)", lo, hi)
	}
	if b.BaseRank() != 16*4 {
		t.Fatalf("rounded alloc base rank %d, want %d", b.BaseRank(), 16*4)
	}
	if got := al.FreeNodes(); got != 256-48 {
		t.Fatalf("free nodes %d, want %d", got, 256-48)
	}
}

// TestAllocErrors pins the two failure modes and their messages: ranks that
// do not fill whole nodes, and exhaustion.
func TestAllocErrors(t *testing.T) {
	m := allocTestMachine(t)
	al := NewAllocator(m)
	if _, err := al.Alloc("odd", 6, "", 0); err == nil || !strings.Contains(err.Error(), "not a positive multiple") {
		t.Fatalf("odd ranks error: %v", err)
	}
	if _, err := al.Alloc("zero", 0, "", 0); err == nil {
		t.Fatal("zero ranks allocated")
	}
	if _, err := al.Alloc("big", 1024, "", 0); err != nil {
		t.Fatalf("whole-machine alloc: %v", err)
	}
	if _, err := al.Alloc("overflow", 4, "", 0); err == nil || !strings.Contains(err.Error(), "no free span") {
		t.Fatalf("exhaustion error: %v", err)
	}
}

// TestAllocFreeCoalescing frees interior slices and checks the spans merge:
// after freeing neighbours A and B, a request for their combined size must
// fit back at the low end of the machine.
func TestAllocFreeCoalescing(t *testing.T) {
	m := allocTestMachine(t)
	al := NewAllocator(m)
	mk := func(name string) *Alloc {
		t.Helper()
		a, err := al.Alloc(name, 64, "", 0) // one pset each
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	al.Free(b)
	al.Free(a) // must coalesce with b's span: [0,32) free again
	if al.FreeNodes() != 256-16 {
		t.Fatalf("free nodes %d, want %d", al.FreeNodes(), 256-16)
	}
	d, err := al.Alloc("d", 128, "", 0) // 32 nodes: only fits if [0,32) merged
	if err != nil {
		t.Fatalf("coalesced span not reusable: %v", err)
	}
	if d.BaseNode() != 0 || d.spanN != 32 {
		t.Fatalf("d at node %d span %d, want the coalesced [0,32)", d.BaseNode(), d.spanN)
	}
	al.Free(c)
	al.Free(d)
	if al.FreeNodes() != 256 {
		t.Fatalf("free nodes %d after freeing everything, want 256", al.FreeNodes())
	}
	// Everything coalesced back into one span: the whole machine fits.
	if _, err := al.Alloc("all", 1024, "", 0); err != nil {
		t.Fatalf("whole machine after churn: %v", err)
	}
}

// TestAllocRankResolution pins global-rank routing in allocated mode:
// AllocOfRank finds the owning slice, NodeOfRank resolves through the
// slice-local placement, and rank ids no live slice owns panic rather than
// silently landing on a stranger's node.
func TestAllocRankResolution(t *testing.T) {
	m := allocTestMachine(t)
	al := NewAllocator(m)
	a, err := al.Alloc("a", 64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := al.Alloc("b", 64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AllocOfRank(10); got != a {
		t.Fatalf("rank 10 owned by %v, want a", got)
	}
	if got := m.AllocOfRank(64 + 10); got != b {
		t.Fatalf("rank 74 owned by %v, want b", got)
	}
	if !b.ContainsRank(64) || b.ContainsRank(63) || b.ContainsRank(128) {
		t.Fatal("ContainsRank boundaries wrong")
	}
	// txyz packs local ranks in order: b's global rank 64+r lives on node
	// b.BaseNode() + r/4.
	for _, r := range []int{0, 5, 63} {
		want := b.BaseNode() + r/4
		if got := m.NodeOfRank(64 + r); got != want {
			t.Fatalf("NodeOfRank(%d) = %d, want %d", 64+r, got, want)
		}
	}
	al.Free(a)
	if m.AllocOfRank(10) != nil {
		t.Fatal("freed slice still owns its ranks")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NodeOfRank of a retired rank id did not panic")
			}
		}()
		m.NodeOfRank(10)
	}()
	if len(m.Allocs()) != 1 || m.Allocs()[0] != b {
		t.Fatalf("live allocs %v, want just b", m.Allocs())
	}
}

// TestFreeForeignAllocPanics pins the cross-machine safety check.
func TestFreeForeignAllocPanics(t *testing.T) {
	al1 := NewAllocator(allocTestMachine(t))
	al2 := NewAllocator(allocTestMachine(t))
	a, err := al1.Alloc("a", 64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Free of a foreign alloc did not panic")
		}
	}()
	al2.Free(a)
}
