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

	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/iolog"
	"repro/internal/nekcem"
)

// cli is nekcem's command line: the flags every driver shares, and its
// own.
type cli struct {
	shared *exp.Flags

	np, steps, every, nf, elems, order int
	ckptName, logPath                  string
	content                            bool
}

// newCLI defines nekcem's flags on fs.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{shared: exp.DeclareFlags(fs)}
	fs.IntVar(&c.np, "np", 4096, "MPI ranks (power-of-two nodes, 4 ranks/node)")
	fs.IntVar(&c.steps, "steps", 20, "solver time steps")
	fs.IntVar(&c.every, "ckpt-every", 20, "checkpoint every N steps (0: never)")
	fs.StringVar(&c.ckptName, "ckpt", "", "checkpoint strategy from the ckpt registry: 1pfpp, coio1, coio, rbio1, rbio, multilevel, async (default rbio)")
	fs.IntVar(&c.nf, "nf", 0, "coio: number of files (default np/64); rbio: np/ng group count")
	fs.BoolVar(&c.content, "content", false, "content mode: run the real SEDG kernel and verify restart bit-for-bit (small np)")
	fs.StringVar(&c.logPath, "log", "", "write a Darshan-style I/O trace (JSON) to this file")
	fs.IntVar(&c.elems, "elements", 0, "mesh elements (default: paper weak scaling, ~4.25/rank at N=15)")
	fs.IntVar(&c.order, "order", 0, "polynomial order N (default 15; content mode default 4)")
	return c
}

func main() {
	c := newCLI(flag.CommandLine)
	flag.Parse()

	o, strat, err := c.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mesh := nekcem.PaperMesh(c.np)
	if c.content {
		mesh = nekcem.Mesh{E: 2 * c.np, N: 4}
	}
	if c.elems > 0 {
		mesh.E = c.elems
	}
	if c.order > 0 {
		mesh.N = c.order
	}

	var log *iolog.Log
	if c.logPath != "" {
		log = &iolog.Log{}
	}
	payload := nekcem.PaperPayloadFactor
	if c.content {
		payload = 1
	}
	res, err := exp.Production(o, c.np, nekcem.RunConfig{
		Mesh:            mesh,
		Strategy:        strat,
		Dir:             "ckpt",
		Steps:           c.steps,
		CheckpointEvery: c.every,
		Synthetic:       !c.content,
		PayloadFactor:   payload,
		Compute:         nekcem.DefaultComputeModel(),
		Log:             log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("NekCEM production run: np=%d E=%d N=%d strategy=%s\n", c.np, mesh.E, mesh.N, strat.Name())
	fmt.Printf("  presetup (mesh read):   %8.2f s\n", res.Presetup)
	fmt.Printf("  compute per step:       %8.3f s\n", res.ComputeStep)
	fmt.Printf("  simulated wall time:    %8.2f s for %d steps\n", res.Wall, c.steps)
	for _, cp := range res.Checkpoints {
		fmt.Printf("  checkpoint @step %-5d  %8.2f s  %7.2f GB  %6.2f GB/s", cp.Step, cp.StepTime(), float64(cp.Bytes)/1e9, exp.GB(cp.Bandwidth()))
		if pb := cp.PerceivedBandwidth(); pb > 0 {
			fmt.Printf("  (perceived %.0f TB/s, workers blocked <= %.1f ms)", pb/1e12, cp.MaxWorker*1e3)
		}
		if cp.AsyncRanks > 0 {
			fmt.Printf("  (solver blocked %.1f ms, flush durable %.2f s after snapshot)", cp.BlockedTime()*1e3, cp.MaxDurable-cp.MaxEnd)
		}
		fmt.Println()
	}
	fmt.Printf("  files on %s: %d\n", res.FS.Name(), res.FS.NumFiles())

	if log != nil {
		if err := exp.WriteFile(c.logPath, log.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  I/O trace: %s (%d records)\n", c.logPath, log.Len())
	}
}

// resolve validates the command line before anything is built and returns
// the run's options and checkpoint strategy. Every rejection is typed: a
// *registry.UnknownError for a name no registry holds, a *bbuf.SpecError
// for a malformed -bb, an *exp.FlagError for a number out of range.
func (c *cli) resolve() (exp.Options, ckpt.Strategy, error) {
	for _, f := range []struct {
		name  string
		value int
	}{{"steps", c.steps}, {"ckpt-every", c.every}, {"nf", c.nf}, {"elements", c.elems}, {"order", c.order}} {
		if f.value < 0 {
			return exp.Options{}, nil, &exp.FlagError{Flag: f.name, Value: f.value, Why: "want >= 0"}
		}
	}
	o, err := c.shared.Options(c.np)
	if err != nil {
		return o, nil, err
	}
	strat, err := resolveStrategy(c.ckptName, c.np, c.nf)
	if err != nil {
		return o, nil, err
	}
	return o, strat, nil
}

// resolveStrategy builds the run's checkpoint strategy from the -ckpt flag
// via the ckpt registry. A positive -nf refines the registry configuration:
// file count for coIO, np:ng group count for rbIO, and must divide np for
// either; strategies without a file-count knob ignore it.
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
		default:
			return strat, nil
		}
		if np%nf != 0 {
			return nil, &exp.FlagError{Flag: "nf", Value: nf, Why: fmt.Sprintf("want a divisor of -np %d", np)}
		}
	}
	return strat, nil
}
