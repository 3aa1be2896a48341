// Waveguide: a content-mode production run of the NekCEM proxy — the real
// spectral-element kernel (GLL nodes, tensor-product derivatives, 5-stage
// Runge-Kutta) advances a 3-D waveguide mode on every rank, checkpoints are
// written through the full simulated I/O stack, and the run then restarts
// from the checkpoint and verifies the restored fields continue the exact
// same trajectory.
//
//	go run ./examples/waveguide
package main

import (
	"fmt"
	"log"

	"repro/internal/ckpt"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

func main() {
	const (
		np    = 64
		steps = 6
		nc    = 3 // checkpoint every 3 steps
	)
	mesh := nekcem.Mesh{E: 128, N: 4} // 2 elements x 125 points per rank
	strategy := ckpt.CoIO{NumFiles: 4, Hints: mpiio.DefaultHints()}

	kernel := sim.NewKernel()
	m := machine.MustNew(kernel, xrand.New(7), machine.Intrepid(np))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0 // determinism matters more than realism here
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// First run: advance six steps, checkpointing at steps 3 and 6.
	w1 := mpi.NewWorld(m, mpi.DefaultConfig())
	res1, err := nekcem.Run(w1, fs, nekcem.RunConfig{
		Mesh:            mesh,
		Strategy:        strategy,
		Dir:             "out",
		Steps:           steps,
		CheckpointEvery: nc,
		DT:              5e-4,
		Compute:         nekcem.ComputeModel{SecPerPoint: 1e-6, Base: 1e-4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("waveguide run: %d ranks, E=%d N=%d, %d steps\n", np, mesh.E, mesh.N, steps)
	for _, c := range res1.Checkpoints {
		fmt.Printf("  checkpoint @step %d: %.2f MB in %.3f s\n", c.Step, float64(c.Bytes)/1e6, c.StepTime())
	}

	// Reference trajectory: what the fields look like after continuing to
	// step 6, computed directly with the kernel (rank 5's view).
	ref := nekcem.NewState(mesh, 5, np)
	ref.InitWaveguide()
	for i := 0; i < steps; i++ {
		ref.Advance(5e-4)
	}

	// Restart run: a fresh world on the same machine and file system
	// restores from the step-3 checkpoint and advances the remaining steps.
	w2 := mpi.NewWorld(m, mpi.DefaultConfig())
	var restartEnergy float64
	err = w2.Run(func(c *mpi.Comm, r *mpi.Rank) {
		plan, err := strategy.Plan(c, r)
		if err != nil {
			log.Fatal(err)
		}
		env := &ckpt.Env{FS: fs, Dir: "out"}
		cp, err := plan.Read(env, r, 3)
		if err != nil {
			log.Fatal(err)
		}
		st := nekcem.NewState(mesh, c.Rank(r), np)
		if err := st.Restore(cp); err != nil {
			log.Fatal(err)
		}
		for st.StepCount() < steps {
			st.Advance(5e-4)
		}
		if c.Rank(r) == 5 {
			restartEnergy = st.Energy()
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("rank 5 field energy:   continuous run %.12f\n", ref.Energy())
	fmt.Printf("                       restarted run  %.12f\n", restartEnergy)
	if restartEnergy != ref.Energy() {
		log.Fatal("restart diverged from the continuous trajectory")
	}
	fmt.Println("restart is bit-exact: the checkpoint round-tripped through the full I/O stack")
}
