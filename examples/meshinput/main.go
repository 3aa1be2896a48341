// Meshinput: the input side of a NekCEM run, end to end. The prex/genmap
// toolchain (internal/meshgen) generates the paper's cylindrical-waveguide
// mesh and its element-to-rank map, the real encoded bytes are placed on
// the simulated GPFS, and a 64-rank job performs the presetup the paper
// describes in Section III-B: rank 0 reads the global files, broadcasts
// them, and every rank decodes and picks out its own elements — with the
// decoded data verified against the generator on every rank.
//
//	go run ./examples/meshinput
package main

import (
	"fmt"
	"log"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/meshgen"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

func main() {
	const np = 64

	// prex: generate the waveguide geometry. genmap: partition it.
	mesh := meshgen.CylindricalWaveguide(4, 16, 16, 1.0, 10.0)
	part := mesh.Partition(np)
	rea, mp := mesh.EncodeRea(), meshgen.EncodeMap(part)
	fmt.Printf("generated waveguide: E=%d elements, %d vertices\n", mesh.NumElems(), len(mesh.Verts))
	fmt.Printf("partition: %d ranks, edge cut %d faces\n", np, mesh.EdgeCut(part))

	// The input files live on the parallel file system before the job runs.
	kernel := sim.NewKernel()
	m := machine.MustNew(kernel, xrand.New(5), machine.Intrepid(np))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fs.PreloadBytes("in/waveguide.rea", rea)
	fs.PreloadBytes("in/waveguide.map", mp)

	// Presetup: rank 0 reads the global files and broadcasts them; every
	// rank decodes and extracts its local elements.
	world := mpi.NewWorld(m, mpi.DefaultConfig())
	var presetup float64
	perRank := make([]int, np)
	mismatches := 0
	err = world.Run(func(c *mpi.Comm, r *mpi.Rank) {
		p := r.Proc()
		var reaBuf, mapBuf data.Buf
		if c.Rank(r) == 0 {
			for _, f := range []struct {
				path string
				dst  *data.Buf
			}{{"in/waveguide.rea", &reaBuf}, {"in/waveguide.map", &mapBuf}} {
				h, err := fs.Open(p, r.ID(), f.path)
				if err != nil {
					log.Fatal(err)
				}
				buf, err := h.ReadAt(p, r.ID(), 0, h.Size())
				if err != nil {
					log.Fatal(err)
				}
				h.Close(p, r.ID())
				*f.dst = buf
			}
		}
		reaBuf = c.Bcast(r, 0, reaBuf)
		mapBuf = c.Bcast(r, 0, mapBuf)

		gotMesh, err := meshgen.DecodeRea(reaBuf.Bytes())
		if err != nil {
			log.Fatalf("rank %d: %v", r.ID(), err)
		}
		gotPart, err := meshgen.DecodeMap(mapBuf.Bytes())
		if err != nil {
			log.Fatalf("rank %d: %v", r.ID(), err)
		}
		// Verify the bytes survived the file system and broadcast intact.
		if gotMesh.NumElems() != mesh.NumElems() || len(gotPart) != len(part) {
			mismatches++
		}
		mine := 0
		for e, owner := range gotPart {
			if owner != part[e] {
				mismatches++
			}
			if owner == c.Rank(r) {
				mine++
			}
		}
		perRank[c.Rank(r)] = mine
		c.Barrier(r)
		if c.Rank(r) == 0 {
			presetup = r.Now()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if mismatches > 0 {
		log.Fatalf("%d decode mismatches after the simulated read+broadcast", mismatches)
	}

	minE, maxE := perRank[0], perRank[0]
	for _, n := range perRank {
		if n < minE {
			minE = n
		}
		if n > maxE {
			maxE = n
		}
	}
	fmt.Printf("presetup on %d ranks took %.3f s simulated (read + broadcast + decode)\n", np, presetup)
	fmt.Printf("every rank decoded the identical global mesh; local loads %d..%d elements\n", minE, maxE)
}
