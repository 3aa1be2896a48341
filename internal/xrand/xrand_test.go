package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("Intn(10) never produced %d in 10000 draws", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp mean %v, want ~2.5", mean)
	}
}

func TestExpNonNegative(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		if v := r.Exp(1); v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(1.5, 2); v < 1.5 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A Pareto(1, 1.2) should produce values >10 with probability ~10^-1.2,
	// i.e. around 6% of draws; verify the tail actually exists.
	r := New(19)
	big := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Pareto(1, 1.2) > 10 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.03 || frac > 0.13 {
		t.Fatalf("tail fraction %v, want ~0.063", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermDeterministic(t *testing.T) {
	a := New(99).Perm(50)
	b := New(99).Perm(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perm not deterministic for identical seed")
		}
	}
}
