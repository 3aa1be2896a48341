package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
)

// The contention tests below are the former fabric.Torus suite, re-run
// through the generic engine on the torus topology: the refactor must not
// change a single arrival time.

func torusNet(t *testing.T, x, y, z int, cfg fabric.LinkConfig) (*Interconnect, *Torus) {
	t.Helper()
	tor := NewTorus(x, y, z)
	return NewInterconnect(tor, cfg), tor
}

func TestUncontendedLatency(t *testing.T) {
	cfg := fabric.LinkConfig{LinkBW: 425e6, InjectBW: 3.4e9}
	tn, tor := torusNet(t, 8, 8, 8, cfg)
	src, dst := 0, tor.ID([3]int{3, 0, 0})
	size := int64(1 << 20)
	arr := tn.Transfer(0, src, dst, size)
	want := 3*fabric.HopLatency + float64(size)/cfg.LinkBW
	if math.Abs(arr-want) > 1e-9 {
		t.Fatalf("uncontended arrival %v, want %v", arr, want)
	}
}

func TestContentionSharedLink(t *testing.T) {
	tn, _ := torusNet(t, 8, 1, 1, fabric.LinkConfig{LinkBW: 1e6, InjectBW: 1e12})
	// Two messages 0->2 share both links; second must wait for the first.
	a1 := tn.Transfer(0, 0, 2, 1e6)
	a2 := tn.Transfer(0, 0, 2, 1e6)
	if want := 1.0 + 2*fabric.HopLatency; math.Abs(a1-want) > 1e-9 {
		t.Fatalf("first arrival %v, want %v", a1, want)
	}
	if a2 < 2.0-1e-9 {
		t.Fatalf("second arrival %v shows no contention (want >= 2.0)", a2)
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	tn, tor := torusNet(t, 8, 8, 1, fabric.LinkConfig{LinkBW: 1e6, InjectBW: 1e12})
	// 0->1 along X and a Y-only pair share no links.
	a1 := tn.Transfer(0, 0, 1, 1e6)
	a2 := tn.Transfer(0, tor.ID([3]int{0, 2, 0}), tor.ID([3]int{0, 3, 0}), 1e6)
	if want := 1.0 + fabric.HopLatency; math.Abs(a1-want) > 1e-9 || math.Abs(a2-want) > 1e-9 {
		t.Fatalf("disjoint transfers interfered: %v, %v", a1, a2)
	}
}

func TestSelfTransfer(t *testing.T) {
	tn, _ := torusNet(t, 4, 4, 4, fabric.DefaultLinkConfig())
	arr := tn.Transfer(1.0, 5, 5, 1<<20)
	if arr <= 1.0 || arr > 1.0+1e-3 {
		t.Fatalf("self transfer arrival %v, want slightly after 1.0", arr)
	}
}

func TestInjectSerializesPerNode(t *testing.T) {
	tn, _ := torusNet(t, 4, 1, 1, fabric.LinkConfig{LinkBW: 425e6, InjectBW: 1e6})
	lat := fabric.InjectLat
	d1 := tn.Inject(0, 0, 1e6) // 1s at 1 MB/s after the send overhead
	d2 := tn.Inject(0, 0, 1e6)
	if math.Abs(d1-(1.0+lat)) > 1e-9 || math.Abs(d2-(2.0+lat)) > 1e-9 {
		t.Fatalf("injections [%v %v], want [%v %v]", d1, d2, 1.0+lat, 2.0+lat)
	}
	// A different node's injector is independent.
	d3 := tn.Inject(0, 1, 1e6)
	if math.Abs(d3-(1.0+lat)) > 1e-9 {
		t.Fatalf("independent node injection %v, want %v", d3, 1.0+lat)
	}
}

func TestTransferArrivalNeverBeforeStart(t *testing.T) {
	for _, name := range TopologyNames() {
		tp, err := NewTopology(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		tn := NewInterconnect(tp, fabric.DefaultLinkConfig())
		f := func(a, b uint16, kb uint16, t0 uint8) bool {
			src, dst := int(a)%tp.Nodes(), int(b)%tp.Nodes()
			start := float64(t0) * 0.01
			arr := tn.Transfer(start, src, dst, int64(kb)*1024+1)
			return arr > start
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
