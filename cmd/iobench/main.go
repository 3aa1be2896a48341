// Command iobench regenerates the paper's evaluation: every figure and
// table of "Parallel I/O Performance for Application-Level Checkpointing on
// the Blue Gene/P System" (CLUSTER 2011), run against the simulated
// Intrepid machine.
//
// Usage:
//
//	iobench                  # everything at paper scale (slow: ~30-60 min)
//	iobench -exp fig5        # one experiment (iobench -exp list for the set)
//	iobench -exp list        # list experiments with their descriptions
//	iobench -np 4096         # scaled-down sweep for a quick look
//	iobench -quiet           # disable the shared-storage noise model
//	iobench -seed 7          # different reproducible noise sample
//	iobench -fs bbuf         # run the checkpoint experiments on another backend
//	iobench -fs bbuf -bb 4x0.25 -drain deadline      # shared 4-node burst-buffer fleet
//	iobench -machine bgl     # run on another machine preset (bgl, fattree, dragonfly)
//	iobench -map xyzt        # override the rank->node placement policy
//	iobench -trace out.json  # emit a Chrome/Perfetto trace of every run
//	iobench -metrics         # print per-layer simulated-time and span tables
//	iobench -exp ckptstorm -tenants 4 -np 1024       # colliding tenant checkpoints
//	iobench -exp workload -workload jobs=6,np=256:1024,gap=1.5  # queued job mix
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/perf"

	_ "repro/internal/bgp" // registers the Blue Gene machine presets
)

func main() {
	var (
		which     = flag.String("exp", "all", "experiment to run (list = print the registry)")
		np        = flag.Int("np", 0, "override the processor sweep with a single count (0 = paper scale 16K/32K/64K)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		quiet     = flag.Bool("quiet", false, "disable the shared-storage noise model")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "experiment worker-pool size (1 = serial); results are identical at any setting")
		shards    = flag.Int("shards", 0, "partitioned-kernel lane workers inside each simulation (0 or 1 = serial kernel); results are identical at any setting")
		fsName    = flag.String("fs", "gpfs", "storage backend for checkpoint experiments: gpfs, pvfs, bbuf (fscompare, drainoverlap and the GPFS-knob ablations/priorwork pick their own backends)")
		ckptName  = flag.String("ckpt", "", "restrict the headline sweeps (fig5/fig6/fig7) to one ckpt-registry strategy: 1pfpp, coio1, coio, rbio1, rbio, multilevel, async (\"\" = all five headline arms)")
		machName  = flag.String("machine", "", "machine preset for checkpoint experiments: intrepid (default), bgl, fattree, dragonfly (priorwork pins its own machines)")
		mapName   = flag.String("map", "", "rank->node placement policy override: txyz (machine default), xyzt, blocked, roundrobin, random")
		bbSpec    = flag.String("bb", "", "burst-buffer fleet spec <nodes>x<gbps> for -fs bbuf (e.g. 8x0.25); \"\" = one private node per ION at the default bandwidth")
		drainName = flag.String("drain", "", "burst-buffer drain-scheduler policy for -fs bbuf: fifo (default), deadline, tenant")
		mtbf      = flag.Float64("mtbf", 6, "per-component MTBF in hours for the fault experiments (faultsweep, makespan, recovery)")
		epochs    = flag.Int("epochs", 0, "checkpoint epochs over the recovery lifecycle's work budget (0 = default 12)")
		workSteps = flag.Int("work", 0, "solver-step work budget for -exp recovery (0 = default 120)")
		manifests = flag.Bool("manifests", false, "attach epoch-manifest recording to every checkpoint run (results are byte-identical; used by the golden-diff CI step)")
		tenants   = flag.Int("tenants", 0, "concurrent tenant jobs for the multi-tenant experiments (ckptstorm, restartstorm); 0 = default 2")
		workload  = flag.String("workload", "", "workload generator spec for -exp workload: key=value pairs over jobs, np (min:max), gap, steps, seed, strategy")
		traceOut  = flag.String("trace", "", "write a Chrome/Perfetto trace_event JSON of every simulation run to this file (load at ui.perfetto.dev)")
		metrics   = flag.Bool("metrics", false, "print per-run aggregated metrics (per-layer simulated time, counters, span stats)")
		traceEvts = flag.Int("trace-events", 0, "per-run retained trace event cap (0 = default 1M; aggregates keep counting past the cap)")
	)
	flag.Parse()
	perf.TuneGC()

	if *which == "list" {
		listExperiments()
		return
	}

	backend, err := fsys.Lookup(*fsName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := machine.Lookup(*machName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := machine.ValidatePlacement(*mapName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "invalid -shards %d (want >= 0; 0 or 1 = serial kernel)\n", *shards)
		os.Exit(2)
	}
	if *tenants < 0 {
		fmt.Fprintf(os.Stderr, "invalid -tenants %d (want >= 1; 0 = default 2)\n", *tenants)
		os.Exit(2)
	}
	if err := validateLifecycleFlags(*epochs, *workSteps, setFlags()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := cluster.ParseWorkload(*workload); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validateCkptFlag(*ckptName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bbNodes, bbGbps, err := bbuf.ParseFleetSpec(*bbSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *drainName != "" {
		if _, err := bbuf.Lookup(*drainName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if _, ok := exp.LookupExperiment(*which); !ok && *which != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: all, list", *which)
		for _, d := range exp.Experiments() {
			fmt.Fprintf(os.Stderr, ", %s", d.Name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}

	o := exp.Options{
		Seed:      *seed,
		FS:        backend,
		Parallel:  *parallel,
		Shards:    *shards,
		Machine:   *machName,
		Map:       *mapName,
		Ckpt:      *ckptName,
		BBNodes:   bbNodes,
		BBDrainBW: bbGbps * 1e9,
		Drain:     *drainName,
		Quiet:     *quiet,
		Manifests: *manifests,
	}
	if *np > 0 {
		o.NPs = []int{*np}
	}
	var tc *exp.TraceCollector
	if *traceOut != "" || *metrics {
		tc = &exp.TraceCollector{MaxEvents: *traceEvts}
		o.Trace = tc
	}

	s := exp.NewSession(o, os.Stdout)
	s.MTBF = *mtbf
	s.Tenants = *tenants
	s.Workload = *workload
	s.Epochs = *epochs
	s.Work = *workSteps
	for _, d := range exp.Experiments() {
		if *which != "all" && !selects(d, *which) {
			continue
		}
		t0 := time.Now()
		fmt.Printf("== %s ==\n", d.Name)
		if err := d.Run(s); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s wall)\n\n", time.Since(t0).Round(time.Millisecond))
	}

	if *metrics && tc != nil {
		for _, m := range tc.Metrics() {
			fmt.Printf("%s\n", m.Table())
		}
	}
	if *traceOut != "" && tc != nil {
		if err := writeTrace(tc, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (load at ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
}

// setFlags returns the names of the flags the command line set explicitly.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validateLifecycleFlags rejects explicit non-positive -epochs/-work values
// (their zero defaults mean "use the experiment's default budget").
func validateLifecycleFlags(epochs, work int, set map[string]bool) error {
	if set["epochs"] && epochs <= 0 {
		return fmt.Errorf("invalid -epochs %d (want >= 1; omit for the default 12)", epochs)
	}
	if set["work"] && work <= 0 {
		return fmt.Errorf("invalid -work %d (want >= 1; omit for the default 120)", work)
	}
	return nil
}

// validateCkptFlag rejects a -ckpt value the registry does not know; the
// empty default means "all headline arms" and always passes.
func validateCkptFlag(name string) error {
	if name == "" {
		return nil
	}
	_, err := ckpt.Lookup(name)
	return err
}

// selects reports whether name picks descriptor d (by name or alias).
func selects(d exp.Descriptor, name string) bool {
	if d.Name == name {
		return true
	}
	for _, a := range d.Aliases {
		if a == name {
			return true
		}
	}
	return false
}

func listExperiments() {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "experiments (iobench -exp <name>):")
	for _, d := range exp.Experiments() {
		flags := ""
		if d.Flags != "" {
			flags = "  [" + d.Flags + "]"
		}
		fmt.Fprintf(w, "  %-14s %s%s\n", d.Name, d.Doc, flags)
	}
}

func writeTrace(tc *exp.TraceCollector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
