// Quickstart: build a simulated Blue Gene/P partition, run one coordinated
// checkpoint of the NekCEM proxy with the paper's rbIO strategy, and print
// what the paper's Figures 5-7 would show for it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/bgp"
	"repro/internal/ckpt"
	"repro/internal/gpfs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func main() {
	// A 1024-rank partition (256 quad-core nodes, 4 psets) of the Intrepid
	// machine model, with its GPFS and an MPI runtime on top. Everything is
	// driven by one deterministic discrete-event kernel.
	const np = 1024
	kernel := sim.NewKernel()
	m := machine.MustNew(kernel, xrand.New(42), bgp.Intrepid(np))
	fs := gpfs.MustNew(m, gpfs.DefaultConfig())
	world := mpi.NewWorld(m, mpi.DefaultConfig())

	// The paper's headline strategy: reduced-blocking I/O with one dedicated
	// writer per 64 ranks, each writer committing its own file (nf = ng).
	strategy := ckpt.DefaultRbIO()

	// Run one solver step and one checkpoint of the paper's weak-scaling
	// problem (~2.5 MB of field data per rank, sizes only; see
	// examples/waveguide for real data).
	res, err := nekcem.Run(world, fs, nekcem.PaperRun(np, strategy, 1, 1))
	if err != nil {
		log.Fatal(err)
	}

	c := res.Checkpoints[0]
	fmt.Printf("checkpointed %.2f GB from %d ranks with %s\n", float64(c.Bytes)/1e9, np, strategy.Name())
	fmt.Printf("  checkpoint step time: %.2f s  (write bandwidth %.2f GB/s)\n", c.StepTime(), c.Bandwidth()/1e9)
	fmt.Printf("  slowest worker was blocked only %.3f ms (perceived bandwidth %.0f TB/s)\n",
		c.MaxWorker*1e3, c.PerceivedBandwidth()/1e12)
	fmt.Printf("  slowest writer spent %.2f s aggregating and committing\n", c.MaxWriter)
	fmt.Printf("  checkpoint/compute ratio: %.0f\n", c.StepTime()/res.ComputeStep)
	fmt.Printf("  files created on GPFS: %d\n", fs.NumFiles())
}
