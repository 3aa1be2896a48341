// Tuning: the parameter-space exploration the paper recommends (Section
// V-B/VII) — sweep rbIO's writer ratio (np:ng) and coIO's file count (nf)
// on one partition and print the tuning surface, the way an application
// team would pick settings for a new machine.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"repro/internal/bgp"
	"repro/internal/ckpt"
	"repro/internal/gpfs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/xrand"
)

const np = 4096

// measure runs one checkpoint step of the strategy on a fresh partition and
// returns (bandwidth GB/s, step seconds).
func measure(strategy ckpt.Strategy) (float64, float64) {
	kernel := sim.NewKernel()
	m := machine.MustNew(kernel, xrand.New(11), bgp.Intrepid(np))
	fs := gpfs.MustNew(m, gpfs.DefaultConfig())
	world := mpi.NewWorld(m, mpi.DefaultConfig())
	res, err := nekcem.Run(world, fs, nekcem.PaperRun(np, strategy, 1, 1))
	if err != nil {
		log.Fatal(err)
	}
	c := res.Checkpoints[0]
	return c.Bandwidth() / 1e9, c.StepTime()
}

func main() {
	fmt.Printf("tuning checkpoint I/O on a %d-rank partition (%.1f GB per step)\n\n",
		np, float64(nekcem.PaperMesh(np).CheckpointBytesFactor(nekcem.PaperPayloadFactor))/1e9)

	// Sweep 1: rbIO writer ratio. More writers = more parallel streams but
	// more files and less aggregation per writer.
	rows := [][]string{}
	bestBW, bestLabel := 0.0, ""
	for _, gs := range []int{16, 32, 64, 128, 256} {
		s := ckpt.DefaultRbIO()
		s.GroupSize = gs
		bw, step := measure(s)
		rows = append(rows, []string{
			fmt.Sprintf("%d:1", gs), fmt.Sprint(np / gs),
			fmt.Sprintf("%.2f", bw), fmt.Sprintf("%.2f", step),
		})
		if bw > bestBW {
			bestBW, bestLabel = bw, fmt.Sprintf("rbIO np:ng=%d:1", gs)
		}
	}
	fmt.Println("rbIO writer-ratio sweep (nf = ng):")
	fmt.Println(table.Text([]string{"np:ng", "writers", "GB/s", "step (s)"}, rows))

	// Sweep 2: coIO file count, nf = 1 .. np/64.
	rows = rows[:0]
	for _, nf := range []int{1, 4, 16, 64} {
		bw, step := measure(ckpt.CoIO{NumFiles: nf, Hints: mpiio.DefaultHints()})
		rows = append(rows, []string{
			fmt.Sprint(nf), fmt.Sprintf("%.2f", bw), fmt.Sprintf("%.2f", step),
		})
		if bw > bestBW {
			bestBW, bestLabel = bw, fmt.Sprintf("coIO nf=%d", nf)
		}
	}
	fmt.Println("coIO file-count sweep:")
	fmt.Println(table.Text([]string{"nf", "GB/s", "step (s)"}, rows))

	fmt.Printf("best configuration on this partition: %s at %.2f GB/s\n", bestLabel, bestBW)
}
