package machine

import "fmt"

// Torus is the Blue Gene 3-D torus: Dim[0] x Dim[1] x Dim[2] compute nodes
// numbered row-major with X fastest, every vertex a compute node (the torus
// has no internal switches). Each node has six outgoing directed links, one
// per direction per dimension; link node*6 + 2*dim is the plus direction
// along dim and node*6 + 2*dim + 1 the minus direction (X+, X-, Y+, Y-, Z+,
// Z-).
//
// Blue Gene/P partitions are always full tori whose dimensions are powers
// of two (a midplane is 8x8x8 = 512 nodes).
type Torus struct {
	Dim [3]int
}

// torusDirs is the number of directed links leaving each torus node.
const torusDirs = 6

// NewTorus returns a torus with the given dimensions, all positive.
func NewTorus(nx, ny, nz int) *Torus {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("machine: invalid torus dimensions %dx%dx%d", nx, ny, nz))
	}
	return &Torus{Dim: [3]int{nx, ny, nz}}
}

// TorusDims returns the balanced torus over n nodes, largest dimension
// first (16384 -> 32x32x16). It panics unless n is a positive power of two,
// as Blue Gene partitions always are.
func TorusDims(n int) *Torus {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("machine: torus node count %d is not a positive power of two", n))
	}
	d := [3]int{1, 1, 1}
	for i := 0; n > 1; i++ {
		d[i%3] *= 2
		n /= 2
	}
	if d[0] < d[1] {
		d[0], d[1] = d[1], d[0]
	}
	if d[1] < d[2] {
		d[1], d[2] = d[2], d[1]
	}
	if d[0] < d[1] {
		d[0], d[1] = d[1], d[0]
	}
	return NewTorus(d[0], d[1], d[2])
}

// Name implements Topology.
func (t *Torus) Name() string { return "torus" }

// Nodes implements Topology.
func (t *Torus) Nodes() int { return t.Dim[0] * t.Dim[1] * t.Dim[2] }

// NumLinks implements Topology.
func (t *Torus) NumLinks() int { return t.Nodes() * torusDirs }

// Coord maps a node id to its (X, Y, Z) coordinate.
func (t *Torus) Coord(id int) [3]int {
	if id < 0 || id >= t.Nodes() {
		panic(fmt.Sprintf("machine: torus node %d out of range [0,%d)", id, t.Nodes()))
	}
	return [3]int{id % t.Dim[0], (id / t.Dim[0]) % t.Dim[1], id / (t.Dim[0] * t.Dim[1])}
}

// ID maps a coordinate back to its node id.
func (t *Torus) ID(c [3]int) int {
	for d, n := range t.Dim {
		if c[d] < 0 || c[d] >= n {
			panic(fmt.Sprintf("machine: coordinate %v outside %v torus", c, t.Dim))
		}
	}
	return c[0] + t.Dim[0]*(c[1]+t.Dim[1]*c[2])
}

// step returns the hop count and direction from a to b along one dimension
// of size n, taking the shorter way around the wraparound (forward on a
// tie).
func step(a, b, n int) (hops int, forward bool) {
	fwd := (b - a + n) % n
	bwd := (a - b + n) % n
	if fwd <= bwd {
		return fwd, true
	}
	return bwd, false
}

// Link implements Topology.
func (t *Torus) Link(idx int) (from, to int) {
	if idx < 0 || idx >= t.NumLinks() {
		panic(fmt.Sprintf("machine: torus link index %d out of range [0,%d)", idx, t.NumLinks()))
	}
	from, dir := idx/torusDirs, idx%torusDirs
	c, d := t.Coord(from), dir/2
	if dir%2 == 0 {
		c[d] = (c[d] + 1) % t.Dim[d]
	} else {
		c[d] = (c[d] + t.Dim[d] - 1) % t.Dim[d]
	}
	return from, t.ID(c)
}

// Distance implements Topology.
func (t *Torus) Distance(a, b int) int {
	ca, cb := t.Coord(a), t.Coord(b)
	dist := 0
	for d, n := range t.Dim {
		hops, _ := step(ca[d], cb[d], n)
		dist += hops
	}
	return dist
}

// AppendRoute implements Topology: the dimension-ordered minimal route, X
// hops first, then Y, then Z.
func (t *Torus) AppendRoute(dst []int, a, b int) []int {
	ca, cb := t.Coord(a), t.Coord(b)
	id, stride := a, 1
	for d, n := range t.Dim {
		hops, fwd := step(ca[d], cb[d], n)
		dir, delta := 2*d, 1
		if !fwd {
			dir, delta = 2*d+1, n-1
		}
		for c := ca[d]; hops > 0; hops-- {
			dst = append(dst, id*torusDirs+dir)
			next := (c + delta) % n
			id += (next - c) * stride
			c = next
		}
		stride *= n
	}
	return dst
}
