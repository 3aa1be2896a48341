package machine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/registry"
	"repro/internal/xrand"
)

// testTopologies returns one instance of every registered topology at the
// given node count, built through the public constructor.
func testTopologies(t *testing.T, nodes int) map[string]Topology {
	t.Helper()
	out := map[string]Topology{}
	for _, name := range TopologyNames() {
		tp, err := NewTopology(name, nodes)
		if err != nil {
			t.Fatalf("NewTopology(%q, %d): %v", name, nodes, err)
		}
		if tp.Name() != name {
			t.Fatalf("topology %q reports name %q", name, tp.Name())
		}
		out[name] = tp
	}
	return out
}

// TestTopologyInvariants checks the properties every topology must share,
// over seeded node pairs at several sizes: a route from a to b has exactly
// Distance(a, b) = Distance(b, a) links, chains link-by-link from a to b,
// and uses only dense in-range link indices.
func TestTopologyInvariants(t *testing.T) {
	for _, nodes := range []int{8, 64, 512} {
		for name, tp := range testTopologies(t, nodes) {
			t.Run(fmt.Sprintf("%s/n%d", name, nodes), func(t *testing.T) {
				if tp.Nodes() != nodes {
					t.Fatalf("Nodes() = %d, want %d", tp.Nodes(), nodes)
				}
				rng := xrand.New(7)
				for trial := 0; trial < 500; trial++ {
					a, b := rng.Intn(nodes), rng.Intn(nodes)
					route := Route(tp, a, b)
					if d, back := tp.Distance(a, b), tp.Distance(b, a); len(route) != d || back != d {
						t.Fatalf("route %d->%d has %d links, Distance says %d there and %d back", a, b, len(route), d, back)
					}
					at := a
					for _, idx := range route {
						if idx < 0 || idx >= tp.NumLinks() {
							t.Fatalf("route %d->%d: link index %d out of [0,%d)", a, b, idx, tp.NumLinks())
						}
						from, to := tp.Link(idx)
						if from != at {
							t.Fatalf("route %d->%d: link %d starts at vertex %d, head is at %d", a, b, idx, from, at)
						}
						at = to
					}
					if at != b {
						t.Fatalf("route %d->%d ends at vertex %d", a, b, at)
					}
				}
			})
		}
	}
}

// TestTopologyLinkIndexDense checks that every index in [0, NumLinks())
// decodes to a link, and that no two indices name the same directed edge at
// a size where no topology has parallel links.
func TestTopologyLinkIndexDense(t *testing.T) {
	for name, tp := range testTopologies(t, 64) {
		t.Run(name, func(t *testing.T) {
			seen := map[[2]int]int{}
			for idx := 0; idx < tp.NumLinks(); idx++ {
				from, to := tp.Link(idx)
				if from == to {
					t.Fatalf("link %d is a self-loop at vertex %d", idx, from)
				}
				key := [2]int{from, to}
				if prev, dup := seen[key]; dup {
					t.Fatalf("links %d and %d both connect %d->%d", prev, idx, from, to)
				}
				seen[key] = idx
			}
		})
	}
}

// TestTopologyLinkIndexRejectsOutOfRange checks the panic contract of Link.
func TestTopologyLinkIndexRejectsOutOfRange(t *testing.T) {
	for name, tp := range testTopologies(t, 64) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Link(NumLinks()) did not panic")
				}
			}()
			tp.Link(tp.NumLinks())
		})
	}
}

// TestTopologySelfRoute checks the empty-route/zero-distance contract.
func TestTopologySelfRoute(t *testing.T) {
	for name, tp := range testTopologies(t, 64) {
		if d := tp.Distance(5, 5); d != 0 {
			t.Errorf("%s: Distance(5,5) = %d", name, d)
		}
		if r := Route(tp, 5, 5); len(r) != 0 {
			t.Errorf("%s: self route has %d links", name, len(r))
		}
	}
}

// TestUnknownTopology checks the typed error and its listing.
func TestUnknownTopology(t *testing.T) {
	_, err := NewTopology("hypercube", 64)
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "machine topology" {
		t.Fatalf("error %#v is not a topology *registry.UnknownError", err)
	}
	if ue.Name != "hypercube" || len(ue.Known) != len(TopologyNames()) {
		t.Fatalf("error fields: %+v", ue)
	}
}

// TestFatTreeShape pins the sizing rules the routing arithmetic assumes.
func TestFatTreeShape(t *testing.T) {
	f := NewFatTree(64)
	if f.Leaves() != 4 || f.Spines() != 2 {
		t.Fatalf("leaves %d spines %d, want 4/2", f.Leaves(), f.Spines())
	}
	// A partition smaller than one leaf collapses to a single switch with
	// no spine layer: every pair is two hops.
	small := NewFatTree(8)
	if small.Leaves() != 1 || small.Spines() != 0 {
		t.Fatalf("small tree leaves %d spines %d", small.Leaves(), small.Spines())
	}
	if d := small.Distance(0, 7); d != 2 {
		t.Fatalf("single-leaf distance %d, want 2", d)
	}
}

// TestDragonflyShape pins the group sizing and the hop-class distances.
func TestDragonflyShape(t *testing.T) {
	d := NewDragonfly(64) // p=4, a=4, g=4
	if d.Groups() != 4 || d.RoutersPerGroup() != 4 {
		t.Fatalf("groups %d routers/group %d, want 4/4", d.Groups(), d.RoutersPerGroup())
	}
	if dist := d.Distance(0, 1); dist != 2 { // same router
		t.Fatalf("same-router distance %d, want 2", dist)
	}
	if dist := d.Distance(0, 4); dist != 3 { // same group, different router
		t.Fatalf("intra-group distance %d, want 3", dist)
	}
	if dist := d.Distance(0, 63); dist < 3 || dist > 5 { // cross-group
		t.Fatalf("cross-group distance %d, want 3..5", dist)
	}
}
