package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"repro/bench"
	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// childEnv marks a perfbench process as a child: it measures one thing and
// writes one childReport to standard output.
const childEnv = "PERFBENCH_CHILD"

// childReport is what a child hands its parent. The parent adds the peak RSS
// from the child's rusage.
type childReport struct {
	Wall    float64            `json:"wall_s"`
	Out     string             `json:"out,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// A set-up child repeats the zero-step run at least setupMin times and, at
// full size, until setupSpan has passed, at most setupMax times.
const (
	setupMin  = 5
	setupMax  = 200
	setupSpan = 200 * time.Millisecond
)

// Child kinds.
const (
	kindSetup = "setup" // repeated zero-step runs at the workload's np
	kindIter  = "iter"  // one repetition of the workload
	kindProbe = "probe" // every layer probe
)

func childMain(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	kind := fl.String("kind", "", "setup, iter or probe")
	name := fl.String("workload", "", "workload name")
	seed := fl.Uint64("seed", 1, "workload seed")
	traced := fl.Bool("traced", false, "attach a trace collector (iter)")
	smoke := fl.Bool("smoke", false, "smoke sizes")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	sz := w.size(*smoke)
	// The same GC setting cmd/iobench runs with, so a repetition costs what
	// a user's invocation does.
	perf.TuneGC()

	var rep childReport
	switch *kind {
	case kindSetup:
		// Set-up takes 1-100 ms at these sizes, too short for one sample to
		// be steady: repeat it and report the median.
		span := setupSpan
		if *smoke {
			span = 0
		}
		var ds []float64
		for t0 := time.Now(); len(ds) < setupMin || (time.Since(t0) < span && len(ds) < setupMax); {
			d, err := setup(sz.np, w.fs, w.shards, *seed)
			if err != nil {
				return err
			}
			ds = append(ds, d.Seconds())
		}
		_, rep.Wall, _ = bench.Quartiles(ds)
	case kindIter:
		o := exp.Options{Seed: *seed, Parallel: 1, Shards: w.shards}
		var tc *exp.TraceCollector
		if *traced {
			tc = &exp.TraceCollector{}
			o.Trace = tc
		}
		t0 := time.Now()
		out, counts, err := w.run(o, sz)
		rep.Wall = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if tc != nil {
			traceMetrics(tc.Metrics(), counts)
		}
		gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(gc)
		counts["go.gc_cycles"] = float64(gc[0].Value.Uint64())
		counts["go.alloc_bytes"] = float64(gc[1].Value.Uint64())
		rep.Out, rep.Metrics = out, counts
	case kindProbe:
		rbio, err := findWorkload("rbio-16k-sharded")
		if err != nil {
			return err
		}
		batches := 3
		if *smoke {
			batches = 1
		}
		if rep.Metrics, err = runProbes(probes(rbio.size(*smoke).np, *smoke), batches); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child kind %q", *kind)
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// setup times a zero-step run: kernel, machine, mount, world and rank spawn,
// with no checkpoint. It follows exp's construction order, so it costs what
// a workload pays before its first simulated step.
func setup(np int, backend fsys.Backend, shards int, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	d, err := machine.Lookup("")
	if err != nil {
		return 0, err
	}
	cfg := d.Config(np)
	cfg.PlacementSeed = seed
	k := sim.NewKernel()
	m, err := machine.New(k, xrand.New(seed^uint64(np)*0x9e37), cfg)
	if err != nil {
		return 0, err
	}
	if shards > 1 && m.NumPsets() > 1 {
		k.EnableSharding(m.NumPsets(), shards, m.Lookahead(), seed)
	}
	fs, err := fsys.Mount(backend, m, fsys.MountOptions{})
	if err != nil {
		return 0, err
	}
	if k.Sharded() {
		fs = fsys.Guard(fs)
	}
	_, err = nekcem.Run(mpi.NewWorld(m, mpi.DefaultConfig()), fs, nekcem.RunConfig{
		Mesh: nekcem.PaperMesh(np), Dir: "ckpt", Synthetic: true, SkipPresetup: true,
		PayloadFactor: nekcem.PaperPayloadFactor, Compute: nekcem.DefaultComputeModel(),
	})
	return time.Since(t0), err
}
