// Command nekcem runs a production simulation of the NekCEM proxy end to
// end: presetup (global mesh read), time stepping, and periodic coordinated
// checkpoints with a selectable I/O strategy, on a simulated Blue Gene/P
// partition with GPFS.
//
// Usage:
//
//	nekcem -np 16384 -steps 40 -ckpt-every 20 -ckpt rbio
//	nekcem -np 1024 -ckpt coio -nf 16 -log trace.json
//	nekcem -np 4096 -ckpt async      # non-blocking checkpoints, background flush
//	nekcem -np 2048 -fs bbuf -bb 4x0.25 -drain deadline  # shared burst-buffer fleet
//	nekcem -np 64 -content           # real SEDG kernel, bit-exact restart check
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/machine"
	"repro/internal/nekcem"
)

func main() {
	var (
		np       = flag.Int("np", 4096, "MPI ranks (power-of-two nodes, 4 ranks/node)")
		steps    = flag.Int("steps", 20, "solver time steps")
		every    = flag.Int("ckpt-every", 20, "checkpoint every N steps (0: never)")
		ckptName = flag.String("ckpt", "", "checkpoint strategy from the ckpt registry: 1pfpp, coio1, coio, rbio1, rbio, multilevel, async (default rbio)")
		fsName   = flag.String("fs", "gpfs", "storage backend from the fsys registry: gpfs, pvfs, bbuf")
		bbSpec   = flag.String("bb", "", "burst-buffer fleet spec <nodes>x<gbps> for -fs bbuf (e.g. 8x0.25); \"\" = one private node per ION at the default bandwidth")
		drain    = flag.String("drain", "", "burst-buffer drain-scheduler policy for -fs bbuf: fifo (default), deadline, tenant")
		nf       = flag.Int("nf", 0, "coio: number of files (default np/64); rbio: np/ng group count")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		machName = flag.String("machine", "", "machine preset: intrepid (default), bgl, fattree, dragonfly")
		mapName  = flag.String("map", "", "rank->node placement policy: txyz (default), xyzt, blocked, roundrobin, random")
		quiet    = flag.Bool("quiet", false, "disable shared-storage noise")
		shards   = flag.Int("shards", 0, "partitioned-kernel lane workers (0 or 1 = serial kernel; results are identical at any setting; ignored with -log)")
		content  = flag.Bool("content", false, "content mode: run the real SEDG kernel and verify restart bit-for-bit (small np)")
		logPath  = flag.String("log", "", "write a Darshan-style I/O trace (JSON) to this file")
		elems    = flag.Int("elements", 0, "mesh elements (default: paper weak scaling, ~4.25/rank at N=15)")
		order    = flag.Int("order", 0, "polynomial order N (default 15; content mode default 4)")
		workStps = flag.Int("work", 0, "solver-step work budget; with -epochs, overrides -steps/-ckpt-every and records epoch manifests (0 = off)")
		epochs   = flag.Int("epochs", 0, "checkpoint epochs over the -work budget (0 = off)")
	)
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "invalid -shards %d (want >= 0; 0 or 1 = serial kernel)\n", *shards)
		os.Exit(2)
	}
	backend, err := fsys.Lookup(*fsName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bbNodes, bbGbps, err := bbuf.ParseFleetSpec(*bbSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *drain != "" {
		if _, err := bbuf.Lookup(*drain); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if err := validateLifecycleFlags(*epochs, *workStps, setFlags()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *workStps > 0 && *epochs > 0 {
		*steps = *workStps
		*every = *workStps / *epochs
		if *every < 1 {
			*every = 1
		}
	}

	mesh := nekcem.PaperMesh(*np)
	if *content {
		mesh = nekcem.Mesh{E: 2 * *np, N: 4}
	}
	if *elems > 0 {
		mesh.E = *elems
	}
	if *order > 0 {
		mesh.N = *order
	}

	strat, err := resolveStrategy(*ckptName, *np, *nf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	desc, err := machine.Lookup(*machName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mcfg := desc.Config(*np)
	if *mapName != "" {
		mcfg.Placement = *mapName
	}
	if err := mcfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var log *iolog.Log
	if *logPath != "" {
		log = &iolog.Log{}
	}
	payload := nekcem.PaperPayloadFactor
	if *content {
		payload = 1
	}
	o := exp.Options{
		Seed:      *seed,
		FS:        backend,
		Machine:   *machName,
		Map:       *mapName,
		Quiet:     *quiet,
		Shards:    *shards,
		BBNodes:   bbNodes,
		BBDrainBW: bbGbps * 1e9,
		Drain:     *drain,
		Manifests: *workStps > 0 && *epochs > 0,
	}
	res, err := exp.Production(o, *np, nekcem.RunConfig{
		Mesh:            mesh,
		Strategy:        strat,
		Dir:             "ckpt",
		Steps:           *steps,
		CheckpointEvery: *every,
		Synthetic:       !*content,
		PayloadFactor:   payload,
		Compute:         nekcem.DefaultComputeModel(),
		Log:             log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("NekCEM production run: np=%d E=%d N=%d strategy=%s\n", *np, mesh.E, mesh.N, strat.Name())
	fmt.Printf("  presetup (mesh read):   %8.2f s\n", res.Presetup)
	fmt.Printf("  compute per step:       %8.3f s\n", res.ComputeStep)
	fmt.Printf("  simulated wall time:    %8.2f s for %d steps\n", res.Wall, *steps)
	for _, c := range res.Checkpoints {
		fmt.Printf("  checkpoint @step %-5d  %8.2f s  %7.2f GB  %6.2f GB/s", c.Step, c.StepTime(), float64(c.Bytes)/1e9, exp.GB(c.Bandwidth()))
		if pb := c.PerceivedBandwidth(); pb > 0 {
			fmt.Printf("  (perceived %.0f TB/s, workers blocked <= %.1f ms)", pb/1e12, c.MaxWorker*1e3)
		}
		if c.AsyncRanks > 0 {
			fmt.Printf("  (solver blocked %.1f ms, flush durable %.2f s after snapshot)", c.BlockedTime()*1e3, c.MaxDurable-c.MaxEnd)
		}
		fmt.Println()
	}
	fmt.Printf("  files on %s: %d\n", res.FS.Name(), res.FS.NumFiles())
	if res.Epochs != nil {
		sealed, torn := 0, 0
		for _, e := range res.Epochs.Epochs(ckpt.LevelGlobal) {
			if e.Sealed() {
				sealed++
			} else {
				torn++
			}
		}
		fmt.Printf("  epoch manifests: %d sealed, %d torn\n", sealed, torn)
	}

	if log != nil {
		writeLog(log, *logPath)
	}
}

// resolveStrategy builds the run's checkpoint strategy from the -ckpt flag
// via the ckpt registry. A positive -nf refines the registry configuration:
// file count for coIO, np:ng group count for rbIO; strategies without a
// file-count knob ignore it.
func resolveStrategy(name string, np, nf int) (ckpt.Strategy, error) {
	d, err := ckpt.Lookup(name)
	if err != nil {
		return nil, err
	}
	strat := d.New(np)
	if nf > 0 {
		switch s := strat.(type) {
		case ckpt.CoIO:
			s.NumFiles = nf
			strat = s
		case ckpt.RbIO:
			s.GroupSize = np / nf
			strat = s
		}
	}
	return strat, nil
}

// setFlags returns the names of the flags the command line set explicitly.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validateLifecycleFlags rejects explicit non-positive -epochs/-work values
// (their zero defaults leave -steps/-ckpt-every in charge).
func validateLifecycleFlags(epochs, work int, set map[string]bool) error {
	if set["epochs"] && epochs <= 0 {
		return fmt.Errorf("invalid -epochs %d (want >= 1)", epochs)
	}
	if set["work"] && work <= 0 {
		return fmt.Errorf("invalid -work %d (want >= 1)", work)
	}
	return nil
}

func writeLog(log *iolog.Log, logPath string) {
	f, err := os.Create(logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := log.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("  I/O trace: %s (%d records)\n", logPath, log.Len())
}
