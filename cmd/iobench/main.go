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
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/registry"

	_ "repro/internal/bgp" // registers the Blue Gene machine presets
)

// cli is iobench's command line.
type cli struct {
	fs *flag.FlagSet

	which, fsName, ckptName, machName, mapName, bbSpec, drainName string
	workload, traceOut                                            string
	np, parallel, shards, epochs, work, tenants, traceEvents      int
	seed                                                          uint64
	mtbf                                                          float64
	quiet, manifests, metrics                                     bool
}

// newCLI defines iobench's flags on fs.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{fs: fs}
	fs.StringVar(&c.which, "exp", "all", "experiment to run (list = print the registry)")
	fs.IntVar(&c.np, "np", 0, "override the processor sweep with a single count (0 = paper scale 16K/32K/64K)")
	fs.Uint64Var(&c.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&c.quiet, "quiet", false, "disable the shared-storage noise model")
	fs.IntVar(&c.parallel, "parallel", runtime.NumCPU(), "experiment worker-pool size (1 = serial); results are identical at any setting")
	fs.IntVar(&c.shards, "shards", 0, "partitioned-kernel lane workers inside each simulation (0 or 1 = serial kernel); results are identical at any setting")
	fs.StringVar(&c.fsName, "fs", "gpfs", "storage backend for checkpoint experiments: gpfs, pvfs, bbuf (fscompare, drainoverlap and the GPFS-knob ablations/priorwork pick their own backends)")
	fs.StringVar(&c.ckptName, "ckpt", "", "restrict the headline sweeps (fig5/fig6/fig7) to one ckpt-registry strategy: 1pfpp, coio1, coio, rbio1, rbio, multilevel, async (\"\" = all five headline arms)")
	fs.StringVar(&c.machName, "machine", "", "machine preset for checkpoint experiments: intrepid (default), bgl, fattree, dragonfly (priorwork pins its own machines)")
	fs.StringVar(&c.mapName, "map", "", "rank->node placement policy override: txyz (machine default), xyzt, blocked, roundrobin, random")
	fs.StringVar(&c.bbSpec, "bb", "", "burst-buffer fleet spec <nodes>x<gbps> for -fs bbuf (e.g. 8x0.25); \"\" = one private node per ION at the default bandwidth")
	fs.StringVar(&c.drainName, "drain", "", "burst-buffer drain-scheduler policy for -fs bbuf: fifo (default), deadline, tenant")
	fs.Float64Var(&c.mtbf, "mtbf", 6, "per-component MTBF in hours for the fault experiments (faultsweep, makespan, recovery)")
	fs.IntVar(&c.epochs, "epochs", 0, "checkpoint epochs over the recovery lifecycle's work budget (0 = default 12)")
	fs.IntVar(&c.work, "work", 0, "solver-step work budget for -exp recovery (0 = default 120)")
	fs.BoolVar(&c.manifests, "manifests", false, "attach epoch-manifest recording to every checkpoint run (results are byte-identical; used by the golden-diff CI step)")
	fs.IntVar(&c.tenants, "tenants", 0, "concurrent tenant jobs for the multi-tenant experiments (ckptstorm, restartstorm); 0 = default 2")
	fs.StringVar(&c.workload, "workload", "", "workload generator spec for -exp workload: key=value pairs over jobs, np (min:max), gap, steps, seed, strategy")
	fs.StringVar(&c.traceOut, "trace", "", "write a Chrome/Perfetto trace_event JSON of every simulation run to this file (load at ui.perfetto.dev)")
	fs.BoolVar(&c.metrics, "metrics", false, "print per-run aggregated metrics (per-layer simulated time, counters, span stats)")
	fs.IntVar(&c.traceEvents, "trace-events", 0, "per-run retained trace event cap (0 = default 1M; aggregates keep counting past the cap)")
	return c
}

func main() {
	c := newCLI(flag.CommandLine)
	flag.Parse()
	perf.TuneGC()

	if c.which == "list" {
		listExperiments()
		return
	}
	o, run, err := c.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var tc *exp.TraceCollector
	if c.traceOut != "" || c.metrics {
		tc = &exp.TraceCollector{MaxEvents: c.traceEvents}
		o.Trace = tc
	}

	s := exp.NewSession(o, os.Stdout)
	s.MTBF = c.mtbf
	s.Tenants = c.tenants
	s.Workload = c.workload
	s.Epochs = c.epochs
	s.Work = c.work
	for _, d := range run {
		t0 := time.Now()
		fmt.Printf("== %s ==\n", d.Name)
		if err := d.Run(s); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s)\n\n", hostCost(time.Since(t0)))
	}

	if c.metrics && tc != nil {
		for _, m := range tc.Metrics() {
			fmt.Printf("%s\n", m.Table())
		}
	}
	if c.traceOut != "" && tc != nil {
		if err := writeTrace(tc, c.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (load at ui.perfetto.dev or chrome://tracing)\n", c.traceOut)
	}
}

// hostCost renders what an experiment cost the host: its wall time, the
// process's peak RSS so far, the memory goroutine stacks hold now and the
// runtime's starting stack size, e.g. "3.9s wall, 141 MB peak RSS, 3 MB
// stacks, 2 KB start stack". Stacks of exited ranks stay held when their
// size is the starting size (DESIGN.md §5). The line always contains
// "wall", so output diffs drop it with grep -v wall.
func hostCost(wall time.Duration) string {
	s := wall.Round(time.Millisecond).String() + " wall"
	if rss := perf.PeakRSS(); rss > 0 {
		s += fmt.Sprintf(", %d MB peak RSS", rss>>20)
	}
	m := []metrics.Sample{
		{Name: "/memory/classes/heap/stacks:bytes"},
		{Name: "/gc/stack/starting-size:bytes"},
	}
	metrics.Read(m)
	return s + fmt.Sprintf(", %d MB stacks, %d KB start stack", m[0].Value.Uint64()>>20, m[1].Value.Uint64()>>10)
}

// resolve validates the command line before any simulation is built and
// returns the run's options and the experiments to run, in registry order.
// Every rejection is typed: a *registry.UnknownError for a name no registry
// holds, a *flagError for a number out of range.
func (c *cli) resolve() (exp.Options, []exp.Descriptor, error) {
	var o exp.Options
	backend, err := fsys.Lookup(c.fsName)
	if err != nil {
		return o, nil, err
	}
	if err := validateMachine(c.machName, c.mapName, c.np); err != nil {
		return o, nil, err
	}
	for _, f := range []struct {
		name  string
		value int
		why   string
	}{
		{"shards", c.shards, "want >= 0; 0 or 1 = serial kernel"},
		{"tenants", c.tenants, "want >= 1; 0 = default 2"},
		{"parallel", c.parallel, "want >= 1; 0 = one worker per CPU"},
		{"trace-events", c.traceEvents, "want >= 1; 0 = default 1M"},
	} {
		if f.value < 0 {
			return o, nil, &flagError{f.name, f.value, f.why}
		}
	}
	if !(c.mtbf > 0) || math.IsInf(c.mtbf, 1) {
		return o, nil, &flagError{"mtbf", c.mtbf, "want a finite number of hours > 0"}
	}
	if err := validateLifecycleFlags(c.epochs, c.work, setFlags(c.fs)); err != nil {
		return o, nil, err
	}
	if _, err := cluster.ParseWorkload(c.workload); err != nil {
		return o, nil, err
	}
	if err := validateCkptFlag(c.ckptName); err != nil {
		return o, nil, err
	}
	bbNodes, bbGbps, err := bbuf.ParseFleetSpec(c.bbSpec)
	if err != nil {
		return o, nil, err
	}
	if c.drainName != "" {
		if _, err := bbuf.Lookup(c.drainName); err != nil {
			return o, nil, err
		}
	}
	run := exp.Experiments()
	if c.which != "all" {
		d, err := exp.Lookup(c.which)
		if err != nil {
			// The driver's two pseudo-experiments are valid choices too.
			var ue *registry.UnknownError
			if errors.As(err, &ue) {
				ue.Known = append([]string{"all", "list"}, ue.Known...)
			}
			return o, nil, err
		}
		run = []exp.Descriptor{d}
	}

	o = exp.Options{
		Seed:      c.seed,
		FS:        backend,
		Parallel:  c.parallel,
		Shards:    c.shards,
		Machine:   c.machName,
		Map:       c.mapName,
		Ckpt:      c.ckptName,
		BBNodes:   bbNodes,
		BBDrainBW: bbGbps * 1e9,
		Drain:     c.drainName,
		Quiet:     c.quiet,
		Manifests: c.manifests,
	}
	if c.np > 0 {
		o.NPs = []int{c.np}
	}
	return o, run, nil
}

// flagError reports a numeric flag value out of range.
type flagError struct {
	Flag  string
	Value any
	Why   string
}

func (e *flagError) Error() string { return fmt.Sprintf("invalid -%s %v (%s)", e.Flag, e.Value, e.Why) }

// validateMachine checks -machine, -np and -map together: np must be >= 0,
// and the preset's partition with the placement override must validate at
// every processor count the sweep runs (-np, or the paper's three).
func validateMachine(name, placement string, np int) error {
	d, err := machine.Lookup(name)
	if err != nil {
		return err
	}
	if np < 0 {
		return &flagError{"np", np, "want >= 0; 0 = paper scale 16K/32K/64K"}
	}
	nps := exp.PaperNPs
	if np > 0 {
		nps = []int{np}
	}
	for _, n := range nps {
		cfg := d.Config(n)
		if placement != "" {
			cfg.Placement = placement
		}
		if err := cfg.Validate(); err != nil {
			var ue *registry.UnknownError
			if !errors.As(err, &ue) {
				err = &flagError{"np", n, err.Error()}
			}
			return err
		}
	}
	return nil
}

// setFlags returns the names of the flags the command line set explicitly.
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validateLifecycleFlags rejects explicit non-positive -epochs/-work values
// (their zero defaults mean "use the experiment's default budget").
func validateLifecycleFlags(epochs, work int, set map[string]bool) error {
	if set["epochs"] && epochs <= 0 {
		return &flagError{"epochs", epochs, "want >= 1; omit for the default 12"}
	}
	if set["work"] && work <= 0 {
		return &flagError{"work", work, "want >= 1; omit for the default 120"}
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
