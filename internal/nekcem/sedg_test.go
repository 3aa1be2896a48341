package nekcem

import (
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/data"
)

func TestGLLNodes(t *testing.T) {
	for _, n := range []int{2, 4, 7, 15} {
		x := gll(n)
		if len(x) != n+1 {
			t.Fatalf("N=%d: %d nodes", n, len(x))
		}
		if x[0] != -1 || x[n] != 1 {
			t.Fatalf("N=%d: endpoints %v %v", n, x[0], x[n])
		}
		for i := 1; i <= n; i++ {
			if x[i] <= x[i-1] {
				t.Fatalf("N=%d: nodes not increasing at %d: %v", n, i, x)
			}
		}
		// Symmetry about zero.
		for i := 0; i <= n; i++ {
			if math.Abs(x[i]+x[n-i]) > 1e-12 {
				t.Fatalf("N=%d: nodes not symmetric: %v vs %v", n, x[i], x[n-i])
			}
		}
		// Interior nodes are roots of P'_N.
		for i := 1; i < n; i++ {
			_, dp, _ := legendre(n, x[i])
			if math.Abs(dp) > 1e-8 {
				t.Fatalf("N=%d: P'_N(x[%d]) = %v, not a root", n, i, dp)
			}
		}
	}
}

func TestGLLKnownN2(t *testing.T) {
	// N=2 GLL nodes are -1, 0, 1.
	x := gll(2)
	if math.Abs(x[1]) > 1e-14 {
		t.Fatalf("N=2 middle node %v, want 0", x[1])
	}
	// N=3: interior nodes at +-1/sqrt(5).
	x = gll(3)
	want := 1 / math.Sqrt(5)
	if math.Abs(x[2]-want) > 1e-12 {
		t.Fatalf("N=3 interior node %v, want %v", x[2], want)
	}
}

func TestDiffMatrixExactness(t *testing.T) {
	// The GLL differentiation matrix must differentiate polynomials of
	// degree <= N exactly at the nodes.
	n := 7
	x := gll(n)
	d := diffMatrix(n, x)
	for deg := 0; deg <= n; deg++ {
		for i := 0; i <= n; i++ {
			var got float64
			for j := 0; j <= n; j++ {
				got += d[i][j] * math.Pow(x[j], float64(deg))
			}
			want := 0.0
			if deg > 0 {
				want = float64(deg) * math.Pow(x[i], float64(deg-1))
			}
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("deg %d node %d: D*x^deg = %v, want %v", deg, i, got, want)
			}
		}
	}
}

func TestDerivAlongEachAxis(t *testing.T) {
	m := Mesh{E: 8, N: 4}
	s := NewState(m, 0, 4) // rank 0 of 4: 2 elements
	n1 := m.N + 1
	ppe := m.PointsPerElement()
	u := make([]float64, s.Elems*ppe)
	out := make([]float64, len(u))
	for axis := 0; axis < 3; axis++ {
		// u = coordinate along axis; derivative must be 1 everywhere.
		for e := 0; e < s.Elems; e++ {
			for k := 0; k < n1; k++ {
				for j := 0; j < n1; j++ {
					for i := 0; i < n1; i++ {
						idx := e*ppe + i + n1*(j+n1*k)
						switch axis {
						case 0:
							u[idx] = s.nodes[i]
						case 1:
							u[idx] = s.nodes[j]
						default:
							u[idx] = s.nodes[k]
						}
					}
				}
			}
		}
		for e := 0; e < s.Elems; e++ {
			s.deriv(u, out, e, axis)
		}
		for idx, v := range out {
			if math.Abs(v-1) > 1e-10 {
				t.Fatalf("axis %d idx %d derivative %v, want 1", axis, idx, v)
			}
		}
	}
}

func TestAdvanceEvolvesFields(t *testing.T) {
	m := Mesh{E: 4, N: 4}
	s := NewState(m, 0, 2)
	s.InitWaveguide()
	before := s.Energy()
	if before == 0 {
		t.Fatal("waveguide init produced zero fields")
	}
	snapshot := append([]float64(nil), s.Fields[FEx]...)
	s.Advance(1e-3)
	if s.StepCount() != 1 {
		t.Fatalf("step count %d", s.StepCount())
	}
	changed := false
	for i, v := range s.Fields[FEx] {
		if v != snapshot[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("Advance did not change the fields")
	}
	// A stable explicit step keeps energy bounded (no blow-up).
	after := s.Energy()
	if math.IsNaN(after) || after > before*1.5 {
		t.Fatalf("energy unstable: %v -> %v", before, after)
	}
}

func TestZeroFieldStaysZero(t *testing.T) {
	m := Mesh{E: 2, N: 3}
	s := NewState(m, 0, 1)
	for i := 0; i < 5; i++ {
		s.Advance(1e-3)
	}
	if s.Energy() != 0 {
		t.Fatalf("zero state evolved to energy %v", s.Energy())
	}
}

func TestAdvanceDeterministic(t *testing.T) {
	run := func() float64 {
		s := NewState(Mesh{E: 4, N: 5}, 1, 2)
		s.InitWaveguide()
		for i := 0; i < 3; i++ {
			s.Advance(5e-4)
		}
		return s.Energy()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("kernel not deterministic: %v vs %v", a, b)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	m := Mesh{E: 6, N: 4}
	s := NewState(m, 1, 3)
	s.InitWaveguide()
	s.Advance(1e-3)
	s.Advance(1e-3)
	cp := s.Checkpoint()
	if cp.Step != 2 {
		t.Fatalf("checkpoint step %d", cp.Step)
	}

	s2 := NewState(m, 1, 3)
	if err := s2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if s2.StepCount() != 2 || s2.time != s.time {
		t.Fatalf("restored counters %d/%v", s2.StepCount(), s2.time)
	}
	if s2.Energy() != s.Energy() {
		t.Fatalf("restored energy %v != %v", s2.Energy(), s.Energy())
	}
	// Continue both and confirm identical trajectories.
	s.Advance(1e-3)
	s2.Advance(1e-3)
	for f := range s.Fields {
		for i := range s.Fields[f] {
			if s.Fields[f][i] != s2.Fields[f][i] {
				t.Fatalf("trajectories diverged at field %d idx %d", f, i)
			}
		}
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	m := Mesh{E: 4, N: 3}
	s := NewState(m, 0, 2)
	cp := s.Checkpoint()

	bad := *cp
	bad.Fields = cp.Fields[:4]
	if err := s.Restore(&bad); err == nil {
		t.Error("short checkpoint accepted")
	}

	// Wrong field order.
	bad2 := *cp
	bad2.Fields = append([]ckpt.Field(nil), cp.Fields...)
	bad2.Fields[0], bad2.Fields[1] = bad2.Fields[1], bad2.Fields[0]
	if err := s.Restore(&bad2); err == nil {
		t.Error("reordered fields accepted")
	}

	// Wrong size.
	bad3 := *cp
	bad3.Fields = append([]ckpt.Field(nil), cp.Fields...)
	bad3.Fields[2].Data = data.Synthetic(17)
	if err := s.Restore(&bad3); err == nil {
		t.Error("wrong-size field accepted")
	}
}
