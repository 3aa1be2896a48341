package meshgen

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBoxCounts(t *testing.T) {
	m := Box(4, 3, 2, 1, 1, 1)
	if m.NumElems() != 24 {
		t.Fatalf("elements %d, want 24", m.NumElems())
	}
	if len(m.Verts) != 5*4*3 {
		t.Fatalf("vertices %d, want 60", len(m.Verts))
	}
}

func TestBoxConnectivityValid(t *testing.T) {
	m := Box(3, 3, 3, 2, 2, 2)
	for e, hex := range m.Elems {
		seen := map[int]bool{}
		for _, vi := range hex {
			if vi < 0 || vi >= len(m.Verts) {
				t.Fatalf("element %d references vertex %d", e, vi)
			}
			if seen[vi] {
				t.Fatalf("element %d repeats vertex %d", e, vi)
			}
			seen[vi] = true
		}
	}
}

func TestBoxElementVolumesTile(t *testing.T) {
	// Axis-aligned box: each element is a brick of volume lx*ly*lz/(nx*ny*nz).
	m := Box(4, 2, 5, 2, 3, 5)
	want := 2.0 * 3 * 5 / (4 * 2 * 5)
	for e := range m.Elems {
		hex := m.Elems[e]
		dx := m.Verts[hex[1]][0] - m.Verts[hex[0]][0]
		dy := m.Verts[hex[2]][1] - m.Verts[hex[0]][1]
		dz := m.Verts[hex[4]][2] - m.Verts[hex[0]][2]
		if v := dx * dy * dz; math.Abs(v-want) > 1e-12 {
			t.Fatalf("element %d volume %v, want %v", e, v, want)
		}
	}
}

func TestInteriorFacesShared(t *testing.T) {
	// A nx x 1 x 1 bar has nx-1 interior faces; with all elements on one
	// rank the edge cut is zero, and split in half it is exactly one.
	m := Box(6, 1, 1, 1, 1, 1)
	one := make([]int, 6)
	if cut := m.EdgeCut(one); cut != 0 {
		t.Fatalf("single-rank cut %d", cut)
	}
	half := []int{0, 0, 0, 1, 1, 1}
	if cut := m.EdgeCut(half); cut != 1 {
		t.Fatalf("halved bar cut %d, want 1", cut)
	}
}

func TestCylinderGeometry(t *testing.T) {
	const r, l = 2.0, 10.0
	m := CylindricalWaveguide(3, 8, 4, r, l)
	if m.NumElems() != 3*8*4 {
		t.Fatalf("elements %d", m.NumElems())
	}
	for i, v := range m.Verts {
		radius := math.Hypot(v[0], v[1])
		if radius > r+1e-9 || radius < 0.15*r-1e-9 {
			t.Fatalf("vertex %d radius %v outside [%v, %v]", i, radius, 0.15*r, r)
		}
		if v[2] < -1e-9 || v[2] > l+1e-9 {
			t.Fatalf("vertex %d z=%v outside [0,%v]", i, v[2], l)
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	m := Box(8, 8, 8, 1, 1, 1) // 512 elements
	for _, np := range []int{2, 7, 16, 100} {
		part := m.Partition(np)
		loads := Loads(part, np)
		min, max := loads[0], loads[0]
		for _, l := range loads {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Fatalf("np=%d: load imbalance %d..%d", np, min, max)
		}
	}
}

func TestPartitionCoversAllRanks(t *testing.T) {
	f := func(npRaw uint8) bool {
		np := int(npRaw)%60 + 1
		m := Box(5, 5, 5, 1, 1, 1)
		part := m.Partition(np)
		loads := Loads(part, np)
		for _, l := range loads {
			if l == 0 && np <= m.NumElems() {
				return false
			}
		}
		for _, p := range part {
			if p < 0 || p >= np {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRCBBeatsRoundRobin(t *testing.T) {
	// The point of genmap: spatial partitioning induces far less
	// communication than striding elements across ranks.
	m := Box(8, 8, 8, 1, 1, 1)
	const np = 16
	rcb := m.Partition(np)
	rr := make([]int, m.NumElems())
	for e := range rr {
		rr[e] = e % np
	}
	rcbCut, rrCut := m.EdgeCut(rcb), m.EdgeCut(rr)
	if rcbCut*2 > rrCut {
		t.Fatalf("RCB cut %d not clearly below round-robin cut %d", rcbCut, rrCut)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	m := Box(6, 6, 6, 1, 1, 1)
	a, b := m.Partition(10), m.Partition(10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("partition not deterministic")
		}
	}
}

func TestReaRoundTrip(t *testing.T) {
	m := CylindricalWaveguide(2, 6, 3, 1.5, 4)
	got, err := DecodeRea(m.EncodeRea())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Verts) != len(m.Verts) || len(got.Elems) != len(m.Elems) {
		t.Fatalf("counts changed: %d/%d", len(got.Verts), len(got.Elems))
	}
	for i := range m.Verts {
		if got.Verts[i] != m.Verts[i] {
			t.Fatalf("vertex %d changed", i)
		}
	}
	for e := range m.Elems {
		if got.Elems[e] != m.Elems[e] {
			t.Fatalf("element %d changed", e)
		}
	}
}

func TestMapRoundTrip(t *testing.T) {
	part := []int{3, 1, 4, 1, 5, 9, 2, 6}
	got, err := DecodeMap(EncodeMap(part))
	if err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if got[i] != part[i] {
			t.Fatalf("entry %d changed", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRea([]byte("NOPE")); err == nil {
		t.Fatal("bad rea accepted")
	}
	if _, err := DecodeMap([]byte("NOPE")); err == nil {
		t.Fatal("bad map accepted")
	}
	m := Box(2, 2, 2, 1, 1, 1)
	enc := m.EncodeRea()
	if _, err := DecodeRea(enc[:len(enc)-4]); err == nil {
		t.Fatal("truncated rea accepted")
	}
	// Corrupt a connectivity entry to point beyond the vertex table.
	bad := append([]byte(nil), enc...)
	off := 16 + 24*len(m.Verts)
	bad[off] = 0xff
	bad[off+1] = 0xff
	bad[off+2] = 0xff
	bad[off+3] = 0xff
	if _, err := DecodeRea(bad); err == nil {
		t.Fatal("out-of-range connectivity accepted")
	}
}

// FuzzDecodeRea feeds arbitrary bytes to DecodeRea: it must fail with
// ErrFormat or return a mesh whose element indices all fall inside its
// vertex table and which re-encodes to the bytes it was decoded from.
func FuzzDecodeRea(f *testing.F) {
	enc := Box(2, 2, 1, 1, 1, 1).EncodeRea()
	f.Add(enc)
	f.Add(enc[:len(enc)-4])
	f.Add(append(enc, 0))
	f.Add([]byte(reaMagic + "\xff\xff\xff\xff\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeRea(b)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v is not ErrFormat", err)
			}
			return
		}
		for e, h := range m.Elems {
			for _, vi := range h {
				if vi < 0 || vi >= len(m.Verts) {
					t.Fatalf("element %d references vertex %d of %d", e, vi, len(m.Verts))
				}
			}
		}
		if got := m.EncodeRea(); !bytes.Equal(got, b[:len(got)]) {
			t.Fatal("decoded mesh does not re-encode to its input")
		}
	})
}

// FuzzDecodeMap feeds arbitrary bytes to DecodeMap: it must fail with
// ErrFormat or return an assignment that re-encodes to the bytes it was
// decoded from.
func FuzzDecodeMap(f *testing.F) {
	enc := EncodeMap([]int{3, 1, 4, 1, 5})
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add([]byte(mapMagic + "\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		part, err := DecodeMap(b)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v is not ErrFormat", err)
			}
			return
		}
		if got := EncodeMap(part); !bytes.Equal(got, b[:len(got)]) {
			t.Fatal("decoded map does not re-encode to its input")
		}
	})
}

func TestMeshFileSizeTracksPaperModel(t *testing.T) {
	// The solver's MeshFileBytes approximation (~240 B/element) should be
	// the right order for real encodings of structured meshes.
	m := Box(16, 16, 16, 1, 1, 1)
	got := len(m.EncodeRea()) + len(EncodeMap(m.Partition(64)))
	perElem := float64(got) / float64(m.NumElems())
	if perElem < 40 || perElem > 400 {
		t.Fatalf("encoded bytes per element %.0f, far from the model's 240", perElem)
	}
}
