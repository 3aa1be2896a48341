package machine

import (
	"reflect"
	"testing"
	"testing/quick"
)

// The torus-specific facts. topology_test.go checks the route, distance and
// link-index contracts every topology shares, but only on the balanced
// shapes TorusDims builds; the property tests here recheck them on uneven
// hand-built shapes (Y longer than X, a dimension of two).

func TestTorusCoordRoundTrip(t *testing.T) {
	tor := NewTorus(8, 4, 2)
	for id := 0; id < tor.Nodes(); id++ {
		if got := tor.ID(tor.Coord(id)); got != id {
			t.Fatalf("round trip failed: %d -> %v -> %d", id, tor.Coord(id), got)
		}
	}
	if c := tor.Coord(1 + 8*3 + 32*1); c != [3]int{1, 3, 1} {
		t.Fatalf("Coord is not row-major X fastest: %v", c)
	}
}

func TestTorusDimsProducesRequestedCount(t *testing.T) {
	for n, want := range map[int][3]int{1: {1, 1, 1}, 2: {2, 1, 1}, 8: {2, 2, 2}, 512: {8, 8, 8}, 4096: {16, 16, 16}, 16384: {32, 32, 16}, 65536: {64, 32, 32}} {
		if got := TorusDims(n); got.Dim != want || got.Nodes() != n {
			t.Errorf("TorusDims(%d) = %v (%d nodes), want %v", n, got.Dim, got.Nodes(), want)
		}
	}
}

func TestTorusDimsRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TorusDims(12) did not panic")
		}
	}()
	TorusDims(12)
}

// TestTorusLinkInverse checks that every link's opposite direction leads
// straight back: link node*6+dir reverses as to*6+(dir^1).
func TestTorusLinkInverse(t *testing.T) {
	tor := NewTorus(4, 4, 4)
	for idx := 0; idx < tor.NumLinks(); idx++ {
		from, to := tor.Link(idx)
		reverse := idx%torusDirs ^ 1 // X+ <-> X-, Y+ <-> Y-, Z+ <-> Z-
		if back, home := tor.Link(to*torusDirs + reverse); back != to || home != from {
			t.Fatalf("link %d: %d->%d, reverse goes %d->%d", idx, from, to, back, home)
		}
	}
}

func TestTorusDistanceUsesWraparound(t *testing.T) {
	tor := NewTorus(8, 1, 1)
	// 0 -> 7 is one hop backwards around the wrap, not seven forward.
	if d := tor.Distance(0, 7); d != 1 {
		t.Fatalf("wraparound distance = %d, want 1", d)
	}
	if d := tor.Distance(0, 4); d != 4 {
		t.Fatalf("half-way distance = %d, want 4", d)
	}
	// A half-way tie goes forward: X+ (direction 0) out of node 0.
	if r := Route(tor, 0, 4); r[0] != 0*torusDirs+0 {
		t.Fatalf("tie route starts on link %d, want X+ of node 0", r[0])
	}
}

func TestTorusRouteDimensionOrdered(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	// From (0,0,0) to (2,3,7): X hops first, then Y, then Z (backwards
	// around the wrap).
	route := Route(tor, tor.ID([3]int{0, 0, 0}), tor.ID([3]int{2, 3, 7}))
	var dirs []int
	for _, idx := range route {
		dirs = append(dirs, idx%torusDirs)
	}
	if want := []int{0, 0, 2, 2, 2, 5}; !reflect.DeepEqual(dirs, want) {
		t.Fatalf("route directions %v, want %v (X+ X+ Y+ Y+ Y+ Z-)", dirs, want)
	}
}

// checkPairs runs prop over quick-generated node pairs of tor.
func checkPairs(t *testing.T, tor *Torus, prop func(a, b int) bool) {
	t.Helper()
	f := func(a, b uint16) bool { return prop(int(a)%tor.Nodes(), int(b)%tor.Nodes()) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDistanceSymmetric(t *testing.T) {
	tor := NewTorus(4, 8, 2)
	checkPairs(t, tor, func(a, b int) bool { return tor.Distance(a, b) == tor.Distance(b, a) })
}

func TestTorusDistanceZeroToSelf(t *testing.T) {
	tor := NewTorus(4, 8, 2)
	for id := 0; id < tor.Nodes(); id++ {
		if d := tor.Distance(id, id); d != 0 {
			t.Fatalf("Distance(%d,%d) = %d", id, id, d)
		}
	}
}

func TestTorusRouteLengthEqualsDistance(t *testing.T) {
	tor := NewTorus(2, 8, 4)
	checkPairs(t, tor, func(a, b int) bool { return len(Route(tor, a, b)) == tor.Distance(a, b) })
}

// TestTorusRouteFollowsLinks replays a route link by link: each link starts
// where the previous one ended, and the last ends on the destination.
func TestTorusRouteFollowsLinks(t *testing.T) {
	tor := NewTorus(8, 4, 2)
	checkPairs(t, tor, func(a, b int) bool {
		at := a
		for _, idx := range Route(tor, a, b) {
			from, to := tor.Link(idx)
			if from != at {
				return false
			}
			at = to
		}
		return at == b
	})
}

// TestTorusLinkIndexDense checks that node*6+dir covers [0, NumLinks())
// once, and that on a shape with every dimension above two no two indices
// name the same directed edge.
func TestTorusLinkIndexDense(t *testing.T) {
	tor := NewTorus(4, 8, 3)
	seen := map[[2]int]int{}
	for idx := 0; idx < tor.NumLinks(); idx++ {
		from, to := tor.Link(idx)
		if from != idx/torusDirs || from == to {
			t.Fatalf("link %d runs %d->%d, want a link out of node %d", idx, from, to, idx/torusDirs)
		}
		if prev, dup := seen[[2]int{from, to}]; dup {
			t.Fatalf("links %d and %d both connect %d->%d", prev, idx, from, to)
		}
		seen[[2]int{from, to}] = idx
	}
	if len(seen) != tor.Nodes()*torusDirs {
		t.Fatalf("indexed %d links, want %d", len(seen), tor.Nodes()*torusDirs)
	}
}
