package machine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/registry"
)

func mustPlacement(t *testing.T, name string, ranks, nodes, rpn int, seed uint64) Placement {
	t.Helper()
	p, err := NewPlacement(name, ranks, nodes, rpn, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlacementCapacity checks the invariant all policies share: every node
// receives exactly RanksPerNode ranks, so pset population stays uniform.
func TestPlacementCapacity(t *testing.T) {
	const ranks, nodes, rpn = 1024, 256, 4
	for _, name := range PlacementNames() {
		p := mustPlacement(t, name, ranks, nodes, rpn, 42)
		counts := make([]int, nodes)
		for r := 0; r < ranks; r++ {
			n := p.NodeOf(r)
			if n < 0 || n >= nodes {
				t.Fatalf("%s: rank %d on node %d, out of [0,%d)", name, r, n, nodes)
			}
			counts[n]++
		}
		for n, c := range counts {
			if c != rpn {
				t.Fatalf("%s: node %d holds %d ranks, want %d", name, n, c, rpn)
			}
		}
	}
}

// TestPlacementDefaults pins the policies' defining assignments.
func TestPlacementDefaults(t *testing.T) {
	const ranks, nodes, rpn = 64, 16, 4
	// The empty name is txyz: rank/rpn, the mapping the goldens freeze.
	def := mustPlacement(t, "", ranks, nodes, rpn, 0)
	for r := 0; r < ranks; r++ {
		if def.NodeOf(r) != r/rpn {
			t.Fatalf("txyz: rank %d on node %d, want %d", r, def.NodeOf(r), r/rpn)
		}
	}
	xyzt := mustPlacement(t, "xyzt", ranks, nodes, rpn, 0)
	for r := 0; r < ranks; r++ {
		if xyzt.NodeOf(r) != r%nodes {
			t.Fatalf("xyzt: rank %d on node %d, want %d", r, xyzt.NodeOf(r), r%nodes)
		}
	}
	// blocked with rpn=4 uses blocks of 2: ranks 0,1 -> node 0, ranks 2,3 ->
	// node 1, wrapping back to node 0 at rank 2*nodes.
	blocked := mustPlacement(t, "blocked", ranks, nodes, rpn, 0)
	if blocked.NodeOf(0) != 0 || blocked.NodeOf(1) != 0 || blocked.NodeOf(2) != 1 {
		t.Fatalf("blocked: first nodes %d %d %d", blocked.NodeOf(0), blocked.NodeOf(1), blocked.NodeOf(2))
	}
	if blocked.NodeOf(2*nodes) != 0 {
		t.Fatalf("blocked: rank %d on node %d, want wrap to 0", 2*nodes, blocked.NodeOf(2*nodes))
	}
}

// TestRandomPlacementSeeding checks that the random policy is a pure
// function of its seed and actually differs from txyz.
func TestRandomPlacementSeeding(t *testing.T) {
	const ranks, nodes, rpn = 1024, 256, 4
	get := func(seed uint64) []int {
		p := mustPlacement(t, "random", ranks, nodes, rpn, seed)
		out := make([]int, ranks)
		for r := range out {
			out[r] = p.NodeOf(r)
		}
		return out
	}
	a, b := get(7), get(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different assignments")
	}
	if reflect.DeepEqual(a, get(8)) {
		t.Fatal("different seeds produced the same assignment")
	}
	txyz := mustPlacement(t, "txyz", ranks, nodes, rpn, 0)
	same := true
	for r := 0; r < ranks; r++ {
		if a[r] != txyz.NodeOf(r) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("random placement equals txyz")
	}
}

// TestUnknownPlacement checks the typed error, its listing, and that
// Config.Validate rejects an unknown policy but accepts the default.
func TestUnknownPlacement(t *testing.T) {
	_, err := NewPlacement("snake", 64, 16, 4, 0)
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "machine placement" {
		t.Fatalf("error %#v is not a placement *registry.UnknownError", err)
	}
	if ue.Name != "snake" || len(ue.Known) != len(PlacementNames()) {
		t.Fatalf("error fields: %+v", ue)
	}
	cfg := Config{Ranks: 64, RanksPerNode: 4, NodesPerPset: 4, CPUHz: 1, Placement: "snake"}
	if err := cfg.Validate(); !errors.As(err, &ue) {
		t.Fatalf("Validate accepted an unknown policy: %v", err)
	}
	cfg.Placement = ""
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected the default: %v", err)
	}
}

// TestPlacementRejectsCapacityMismatch checks the ranks == nodes*rpn guard.
func TestPlacementRejectsCapacityMismatch(t *testing.T) {
	if _, err := NewPlacement("txyz", 100, 16, 4, 0); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}
