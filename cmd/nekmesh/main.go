// Command nekmesh plays the role of NekCEM's prex/genmap toolchain: it
// generates a hexahedral mesh (box or the paper's cylindrical waveguide),
// partitions it across MPI ranks with recursive coordinate bisection, and
// writes the *.rea / *.map input files a NekCEM run reads at presetup.
//
// Usage:
//
//	nekmesh -geom cyl -nr 4 -nt 16 -nz 32 -np 64 -o waveguide
//	nekmesh -geom box -nx 16 -ny 16 -nz 16 -np 128 -o box
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/meshgen"
)

func main() {
	c := newCLI(flag.CommandLine)
	flag.Parse()

	mesh, err := c.build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	part := mesh.Partition(c.np)
	loads := meshgen.Loads(part, c.np)
	minL, maxL := loads[0], loads[0]
	for _, l := range loads {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	rr := make([]int, mesh.NumElems())
	for e := range rr {
		rr[e] = e % c.np
	}

	rea, mp := mesh.EncodeRea(), meshgen.EncodeMap(part)
	if err := os.WriteFile(c.out+".rea", rea, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(c.out+".map", mp, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("mesh: %s, E=%d elements, %d vertices\n", c.geom, mesh.NumElems(), len(mesh.Verts))
	fmt.Printf("partition: np=%d, load %d..%d elements/rank\n", c.np, minL, maxL)
	fmt.Printf("edge cut: RCB %d faces (round-robin would cut %d)\n", mesh.EdgeCut(part), mesh.EdgeCut(rr))
	fmt.Printf("wrote %s.rea (%d bytes), %s.map (%d bytes)\n", c.out, len(rea), c.out, len(mp))
}

// cli holds nekmesh's flags.
type cli struct {
	geom, out              string
	nx, ny, nz, nr, nt, np int
}

func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{}
	fs.StringVar(&c.geom, "geom", "cyl", "geometry: box or cyl")
	fs.IntVar(&c.nx, "nx", 8, "box: elements in x")
	fs.IntVar(&c.ny, "ny", 8, "box: elements in y")
	fs.IntVar(&c.nz, "nz", 8, "elements in z (both geometries)")
	fs.IntVar(&c.nr, "nr", 4, "cyl: radial element layers")
	fs.IntVar(&c.nt, "nt", 16, "cyl: angular element layers")
	fs.IntVar(&c.np, "np", 64, "ranks to partition for")
	fs.StringVar(&c.out, "o", "mesh", "output basename (<o>.rea, <o>.map)")
	return c
}

// build checks every count, then generates the mesh. A count below 1 is a
// *exp.FlagError, caught before meshgen, which panics on it.
func (c *cli) build() (*meshgen.Mesh, error) {
	for _, f := range []struct {
		name  string
		value int
	}{{"np", c.np}, {"nx", c.nx}, {"ny", c.ny}, {"nz", c.nz}, {"nr", c.nr}, {"nt", c.nt}} {
		if f.value < 1 {
			return nil, &exp.FlagError{Flag: f.name, Value: f.value, Why: "want >= 1"}
		}
	}
	switch c.geom {
	case "box":
		return meshgen.Box(c.nx, c.ny, c.nz, 1, 1, 1), nil
	case "cyl":
		return meshgen.CylindricalWaveguide(c.nr, c.nt, c.nz, 1, 10), nil
	}
	return nil, fmt.Errorf("unknown geometry %q", c.geom)
}
