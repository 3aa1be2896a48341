// Package nekcem is a proxy for the NekCEM spectral-element discontinuous
// Galerkin (SEDG) electromagnetic solver whose checkpointing the paper
// studies. It provides:
//
//   - the mesh arithmetic that fixes the paper's problem sizes
//     (E elements of order N, n = E(N+1)^3 grid points, six field
//     components, S = 48n bytes per checkpoint step);
//   - a real, small-scale SEDG kernel (Gauss-Lobatto-Legendre nodes,
//     tensor-product differentiation, five-stage low-storage Runge-Kutta)
//     used by the examples and integrity tests;
//   - a calibrated compute-time model for at-scale simulation; and
//   - the production run loop (presetup -> solve -> checkpoint) driven
//     inside the machine simulation.
package nekcem

import "fmt"

// Mesh describes a global hexahedral spectral-element mesh.
type Mesh struct {
	E int // number of elements
	N int // polynomial approximation order
}

// PointsPerElement returns (N+1)^3.
func (m Mesh) PointsPerElement() int {
	n1 := m.N + 1
	return n1 * n1 * n1
}

// GlobalPoints returns n = E(N+1)^3.
func (m Mesh) GlobalPoints() int64 {
	return int64(m.E) * int64(m.PointsPerElement())
}

// NumFields is the number of checkpointed field components
// (Ex, Ey, Ez, Hx, Hy, Hz).
const NumFields = 6

// FieldNames lists the checkpointed components in file order.
var FieldNames = []string{"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"}

// PaperPayloadFactor scales each component block for the auxiliary
// per-point payload NekCEM's vtk checkpoint carries. The paper reports
// (n, S) = (275M, 39 GB), i.e. ~144 bytes per grid point = 18 float64
// words: the six components plus coordinate and time-history payload —
// three words per component. Paper-scale experiments pass this as
// RunConfig.PayloadFactor so the simulated S matches the published
// 39/78/156 GB.
const PaperPayloadFactor = 3

// CheckpointBytesFactor returns S, the bytes one checkpoint step writes
// across all ranks, when each component block carries factor float64 words
// per grid point (1: the six fields alone).
func (m Mesh) CheckpointBytesFactor(factor int) int64 {
	return int64(NumFields*factor) * 8 * m.GlobalPoints()
}

// ElemsOnRank returns how many elements rank holds out of np (block
// distribution, remainder spread over the low ranks).
func (m Mesh) ElemsOnRank(rank, np int) int {
	if np <= 0 || rank < 0 || rank >= np {
		panic(fmt.Sprintf("nekcem: rank %d of %d", rank, np))
	}
	base := m.E / np
	if rank < m.E%np {
		return base + 1
	}
	return base
}

// PointsOnRank returns the grid points rank holds.
func (m Mesh) PointsOnRank(rank, np int) int64 {
	return int64(m.ElemsOnRank(rank, np)) * int64(m.PointsPerElement())
}

// MeshFileBytes approximates the size of the global input files (*.rea and
// *.map): vertex coordinates, connectivity and processor mapping per
// element.
func (m Mesh) MeshFileBytes() int64 {
	return int64(m.E) * 240
}

// PaperMesh returns the paper's weak-scaling mesh for a given rank count:
// (E, P) = (68K, 16K), (137K, 32K), (273K, 65K) at N = 15, about 4.2
// elements (17K grid points) per rank.
func PaperMesh(np int) Mesh {
	const elemsPerRank = 68 * 1024 / (16 * 1024.0)
	return Mesh{E: int(float64(np) * elemsPerRank), N: 15}
}

// ComputeModel converts a rank's load into solver time per time step.
// NekCEM's SEDG operator is memory/flop bound and weak-scales almost
// perfectly, so the model is linear in local points with a small fixed
// overhead for the face-flux exchange.
type ComputeModel struct {
	SecPerPoint float64 // solver seconds per grid point per step
	Base        float64 // per-step fixed cost (communication, flux)
}

// DefaultComputeModel is calibrated to the paper's reported 0.13 s per step
// for n/P = 8530 on Blue Gene/P (Section III-A), i.e. ~15.2 us per point
// including the RK stages.
func DefaultComputeModel() ComputeModel {
	return ComputeModel{SecPerPoint: 0.13 / 8530, Base: 2e-3}
}

// StepTime returns the modelled solver time for one time step on a rank
// holding the given number of grid points.
func (cm ComputeModel) StepTime(points int64) float64 {
	return cm.Base + cm.SecPerPoint*float64(points)
}
