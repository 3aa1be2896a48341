package nekcem

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/data"
)

// gll computes the N+1 Gauss-Lobatto-Legendre nodes on [-1,1]: the endpoints
// plus the roots of P'_N, found by Newton iteration from Chebyshev-Lobatto
// initial guesses.
func gll(n int) []float64 {
	x := make([]float64, n+1)
	x[0], x[n] = -1, 1
	for i := 1; i < n; i++ {
		// Chebyshev-Lobatto guess, refined on q(x) = P'_N(x).
		xi := -math.Cos(math.Pi * float64(i) / float64(n))
		for iter := 0; iter < 50; iter++ {
			_, dp, ddp := legendre(n, xi)
			dx := dp / ddp
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		x[i] = xi
	}
	return x
}

// legendre evaluates P_n(x), P'_n(x) and P”_n(x) by the three-term
// recurrence.
func legendre(n int, x float64) (p, dp, ddp float64) {
	p0, p1 := 1.0, x
	if n == 0 {
		return 1, 0, 0
	}
	for k := 2; k <= n; k++ {
		p0, p1 = p1, ((2*float64(k)-1)*x*p1-(float64(k)-1)*p0)/float64(k)
	}
	p = p1
	// Derivatives from the standard identities (x != +-1 handled by the
	// Newton guesses staying interior).
	dp = float64(n) * (x*p1 - p0) / (x*x - 1)
	// Legendre ODE: (1-x^2) P'' - 2x P' + n(n+1) P = 0.
	ddp = (2*x*dp - float64(n)*float64(n+1)*p1) / (1 - x*x)
	return p, dp, ddp
}

// diffMatrix builds the (N+1)x(N+1) GLL differentiation matrix.
func diffMatrix(n int, x []float64) [][]float64 {
	d := make([][]float64, n+1)
	ln := make([]float64, n+1) // P_N at the nodes
	for i := range ln {
		p, _, _ := legendre(n, x[i])
		ln[i] = p
	}
	for i := range d {
		d[i] = make([]float64, n+1)
		for j := range d[i] {
			switch {
			case i == j && i == 0:
				d[i][j] = -float64(n) * float64(n+1) / 4
			case i == j && i == n:
				d[i][j] = float64(n) * float64(n+1) / 4
			case i == j:
				d[i][j] = 0
			default:
				d[i][j] = ln[i] / (ln[j] * (x[i] - x[j]))
			}
		}
	}
	return d
}

// Carpenter-Kennedy five-stage fourth-order low-storage Runge-Kutta
// coefficients (the scheme NekCEM uses for time advancement).
var (
	lsrkA = [5]float64{
		0,
		-567301805773.0 / 1357537059087.0,
		-2404267990393.0 / 2016746695238.0,
		-3550918686646.0 / 2091501179385.0,
		-1275806237668.0 / 842570457699.0,
	}
	lsrkB = [5]float64{
		1432997174477.0 / 9575080441755.0,
		5161836677717.0 / 13612068292357.0,
		1720146321549.0 / 2090206949498.0,
		3134564353537.0 / 4481467310338.0,
		2277821191437.0 / 14882151754819.0,
	}
)

// Field indices into State.Fields.
const (
	FEx = iota
	FEy
	FEz
	FHx
	FHy
	FHz
)

// State is one rank's solver state: six field arrays over the rank's
// elements, plus the spectral operators. A synthetic state carries sizes
// only and is used for paper-scale runs.
type State struct {
	Mesh  Mesh
	Rank  int
	Elems int

	// Fields[f] has Elems*(N+1)^3 values, element-major. Nil when synthetic.
	Fields [NumFields][]float64
	res    [NumFields][]float64 // low-storage RK residuals

	nodes []float64
	d     [][]float64
	synth bool
	step  int64
	time  float64

	// PayloadFactor scales each component's checkpoint block: factor words
	// per grid point (see Mesh.CheckpointBytesFactor). Zero means 1. In
	// content mode the extra words are copies of the field values, so
	// restart verification still covers the leading copy.
	PayloadFactor int
}

// NewState builds a rank's solver state with real field storage.
func NewState(m Mesh, rank, np int) *State {
	s := &State{Mesh: m, Rank: rank, Elems: m.ElemsOnRank(rank, np)}
	pts := s.Elems * m.PointsPerElement()
	for f := range s.Fields {
		s.Fields[f] = make([]float64, pts)
		s.res[f] = make([]float64, pts)
	}
	s.nodes = gll(m.N)
	s.d = diffMatrix(m.N, s.nodes)
	return s
}

// NewSyntheticState builds a sizes-only state for at-scale simulation.
func NewSyntheticState(m Mesh, rank, np int) *State {
	return &State{Mesh: m, Rank: rank, Elems: m.ElemsOnRank(rank, np), synth: true}
}

// Step returns how many time steps have been advanced.
func (s *State) StepCount() int64 { return s.step }

// InitWaveguide fills the fields with a smooth TE-like cylindrical
// waveguide mode so that the solver evolves non-trivial data. Each element
// gets the mode sampled on its GLL nodes with a per-element phase so ranks
// hold distinct data.
func (s *State) InitWaveguide() {
	if s.synth {
		return
	}
	n1 := s.Mesh.N + 1
	ppe := s.Mesh.PointsPerElement()
	for e := 0; e < s.Elems; e++ {
		phase := float64(s.Rank*s.Elems+e) * 0.37
		for k := 0; k < n1; k++ {
			for j := 0; j < n1; j++ {
				for i := 0; i < n1; i++ {
					idx := e*ppe + i + n1*(j+n1*k)
					x, y, z := s.nodes[i], s.nodes[j], s.nodes[k]
					s.Fields[FEx][idx] = math.Sin(math.Pi*y+phase) * math.Sin(math.Pi*z)
					s.Fields[FEy][idx] = math.Sin(math.Pi*z) * math.Sin(math.Pi*x+phase)
					s.Fields[FEz][idx] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y+phase)
					s.Fields[FHx][idx] = math.Cos(math.Pi*y) * math.Cos(math.Pi*z+phase)
					s.Fields[FHy][idx] = math.Cos(math.Pi*z) * math.Cos(math.Pi*x+phase)
					s.Fields[FHz][idx] = math.Cos(math.Pi*x) * math.Cos(math.Pi*y+phase)
				}
			}
		}
	}
}

// deriv applies the differentiation matrix along the given axis (0=x, 1=y,
// 2=z) of element e of u, writing into out.
func (s *State) deriv(u, out []float64, e, axis int) {
	n1 := s.Mesh.N + 1
	ppe := s.Mesh.PointsPerElement()
	base := e * ppe
	stride := 1
	if axis == 1 {
		stride = n1
	} else if axis == 2 {
		stride = n1 * n1
	}
	// Iterate over the n1^2 lines along the axis.
	for a := 0; a < n1; a++ {
		for b := 0; b < n1; b++ {
			var line int
			switch axis {
			case 0:
				line = base + n1*(a+n1*b)
			case 1:
				line = base + a + n1*n1*b
			default:
				line = base + a + n1*b
			}
			for i := 0; i < n1; i++ {
				var acc float64
				row := s.d[i]
				for m := 0; m < n1; m++ {
					acc += row[m] * u[line+m*stride]
				}
				out[line+i*stride] = acc
			}
		}
	}
}

// Advance integrates one time step of the Maxwell curl equations with the
// five-stage low-storage RK scheme. It is the real (small-scale) SEDG
// kernel: tensor-product spectral derivatives per element. Inter-element
// flux coupling is omitted — the proxy needs representative data movement
// and arithmetic, not a validated EM solution.
func (s *State) Advance(dt float64) {
	if s.synth {
		s.step++
		s.time += dt
		return
	}
	pts := len(s.Fields[0])
	rhs := make([][]float64, NumFields)
	for f := range rhs {
		rhs[f] = make([]float64, pts)
	}
	var in [NumFields][]float64
	for stage := 0; stage < 5; stage++ {
		copy(in[:], s.Fields[:])
		s.curl(in, rhs)
		for f := range s.Fields {
			a, b := lsrkA[stage], lsrkB[stage]
			res, u, rf := s.res[f], s.Fields[f], rhs[f]
			for i := range u {
				res[i] = a*res[i] + dt*rf[i]
				u[i] += b * res[i]
			}
		}
	}
	s.step++
	s.time += dt
}

// curl evaluates the Maxwell curl right-hand side: rhs_E = curl H and
// rhs_H = -curl E, via tensor-product spectral derivatives per element.
// rhs slices are overwritten.
func (s *State) curl(fields [NumFields][]float64, rhs [][]float64) {
	pts := len(fields[0])
	ppe := s.Mesh.PointsPerElement()
	du := make([]float64, pts) // scratch for one derivative
	for f := range rhs {
		for i := range rhs[f] {
			rhs[f][i] = 0
		}
	}
	add := func(dst int, src int, axis int, sign float64) {
		for e := 0; e < s.Elems; e++ {
			s.deriv(fields[src], du, e, axis)
			base := e * ppe
			for i := 0; i < ppe; i++ {
				rhs[dst][base+i] += sign * du[base+i]
			}
		}
	}
	// dE/dt = curl H ; dH/dt = -curl E
	add(FEx, FHz, 1, +1)
	add(FEx, FHy, 2, -1)
	add(FEy, FHx, 2, +1)
	add(FEy, FHz, 0, -1)
	add(FEz, FHy, 0, +1)
	add(FEz, FHx, 1, -1)
	add(FHx, FEz, 1, -1)
	add(FHx, FEy, 2, +1)
	add(FHy, FEx, 2, -1)
	add(FHy, FEz, 0, +1)
	add(FHz, FEy, 0, -1)
	add(FHz, FEx, 1, +1)
}

// factor returns the effective payload factor (>= 1).
func (s *State) factor() int64 {
	if s.PayloadFactor > 1 {
		return int64(s.PayloadFactor)
	}
	return 1
}

// ChunkBytes returns the rank's per-field checkpoint block size.
func (s *State) ChunkBytes() int64 {
	return 8 * int64(s.Elems) * int64(s.Mesh.PointsPerElement()) * s.factor()
}

// Checkpoint encodes the state into a coordinated checkpoint contribution:
// one block per field component, each carrying PayloadFactor words per
// point (value first, auxiliary payload after).
func (s *State) Checkpoint() *ckpt.Checkpoint {
	cp := &ckpt.Checkpoint{Step: s.step, SimTime: s.time, Fields: make([]ckpt.Field, 0, NumFields)}
	for f, name := range FieldNames {
		var buf data.Buf
		if s.synth {
			buf = data.Synthetic(s.ChunkBytes())
		} else {
			enc := encodeFloats(s.Fields[f])
			block := make([]byte, 0, s.ChunkBytes())
			for rep := int64(0); rep < s.factor(); rep++ {
				block = append(block, enc...)
			}
			buf = data.FromBytes(block)
		}
		cp.Fields = append(cp.Fields, ckpt.Field{Name: name, Data: buf})
	}
	return cp
}

// Restore loads a checkpoint back into the state. Synthetic payloads only
// validate sizes (at-scale restart); real payloads restore every value.
func (s *State) Restore(cp *ckpt.Checkpoint) error {
	if len(cp.Fields) != NumFields {
		return fmt.Errorf("nekcem: checkpoint has %d fields, want %d", len(cp.Fields), NumFields)
	}
	for f, fd := range cp.Fields {
		if fd.Name != FieldNames[f] {
			return fmt.Errorf("nekcem: field %d is %q, want %q", f, fd.Name, FieldNames[f])
		}
		if fd.Data.Len() != s.ChunkBytes() {
			return fmt.Errorf("nekcem: field %q has %d bytes, want %d", fd.Name, fd.Data.Len(), s.ChunkBytes())
		}
		if s.synth || !fd.Data.Real() {
			continue
		}
		// The leading words per point are the field values.
		decodeFloats(fd.Data.Bytes()[:8*len(s.Fields[f])], s.Fields[f])
	}
	s.step = cp.Step
	s.time = cp.SimTime
	return nil
}

// Energy returns the field energy 0.5*sum(E^2+H^2), a cheap integrity
// fingerprint for tests and examples.
func (s *State) Energy() float64 {
	var e float64
	for f := range s.Fields {
		for _, v := range s.Fields[f] {
			e += v * v
		}
	}
	return e / 2
}

func encodeFloats(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

func decodeFloats(b []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
