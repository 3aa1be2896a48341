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
//	iobench -quiet           # no server noise spikes (metadata jitter stays: -seed still matters)
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
	"slices"
	"time"

	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/perf"
	"repro/internal/registry"
)

// cli is iobench's command line: the flags every driver shares, the
// session the experiment flags write, and iobench's own flags.
type cli struct {
	shared *exp.Flags
	sess   *exp.Session

	which, ckptName, traceOut string
	np, parallel, traceEvents int
	metrics                   bool
}

// newCLI defines iobench's flags on fs. -mtbf, -epochs, -work, -tenants and
// -workload are the session's fields, so they default to its defaults.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{shared: exp.DeclareFlags(fs), sess: exp.NewSession(exp.Options{}, os.Stdout)}
	s := c.sess
	fs.StringVar(&c.which, "exp", "all", "experiment to run (list = print the registry)")
	fs.IntVar(&c.np, "np", 0, "override the processor sweep with a single count (0 = paper scale 16K/32K/64K)")
	fs.IntVar(&c.parallel, "parallel", runtime.NumCPU(), "experiment worker-pool size (1 = serial); results are identical at any setting")
	fs.StringVar(&c.ckptName, "ckpt", "", "restrict the headline sweeps (fig5/fig6/fig7) to one ckpt-registry strategy: 1pfpp, coio1, coio, rbio1, rbio, multilevel, async (\"\" = all five headline arms)")
	fs.Float64Var(&s.MTBF, "mtbf", s.MTBF, "per-component MTBF in hours for the fault experiments (faultsweep, makespan, recovery)")
	fs.IntVar(&s.Epochs, "epochs", s.Epochs, "checkpoint epochs over the recovery lifecycle's work budget")
	fs.IntVar(&s.Work, "work", s.Work, "solver-step work budget for -exp recovery")
	fs.IntVar(&s.Tenants, "tenants", s.Tenants, "concurrent tenant jobs for the multi-tenant experiments (ckptstorm, restartstorm)")
	fs.StringVar(&s.Workload, "workload", "", "workload generator spec for -exp workload: key=value pairs over jobs, np (min:max), gap, steps, seed, strategy")
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
	run, err := c.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var tc *exp.TraceCollector
	if c.traceOut != "" || c.metrics {
		tc = &exp.TraceCollector{MaxEvents: c.traceEvents}
		c.sess.Opts.Trace = tc
	}

	for _, d := range run {
		t0 := time.Now()
		fmt.Printf("== %s ==\n", d.Name)
		if err := d.Run(c.sess); err != nil {
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
		if err := exp.WriteFile(c.traceOut, tc.WriteJSON); err != nil {
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

// resolve validates the command line before any simulation is built, sets
// the session's options and returns the experiments to run, in registry
// order. Every rejection is typed: a *registry.UnknownError for a name no
// registry holds, a *bbuf.SpecError or *exp.WorkloadError for a
// malformed spec, a *exp.CapacityError for a workload job larger than a
// pinned -np, an *exp.FlagError for a number out of range.
func (c *cli) resolve() ([]exp.Descriptor, error) {
	if c.np < 0 {
		return nil, &exp.FlagError{Flag: "np", Value: c.np, Why: "want >= 0; 0 = paper scale 16K/32K/64K"}
	}
	var nps []int
	if c.np > 0 {
		nps = []int{c.np}
	}
	o, err := c.shared.Options(nps...)
	if err != nil {
		return nil, err
	}
	for _, f := range []struct {
		name       string
		value, min int
		why        string
	}{
		{"tenants", c.sess.Tenants, 1, "want >= 1"},
		{"epochs", c.sess.Epochs, 1, "want >= 1"},
		{"work", c.sess.Work, 1, "want >= 1"},
		{"parallel", c.parallel, 0, "want >= 1; 0 = one worker per CPU"},
		{"trace-events", c.traceEvents, 0, "want >= 1; 0 = default 1M"},
	} {
		if f.value < f.min {
			return nil, &exp.FlagError{Flag: f.name, Value: f.value, Why: f.why}
		}
	}
	if mtbf := c.sess.MTBF; !(mtbf > 0) || math.IsInf(mtbf, 1) {
		return nil, &exp.FlagError{Flag: "mtbf", Value: mtbf, Why: "want a finite number of hours > 0"}
	}
	if err := validateCkptFlag(c.ckptName); err != nil {
		return nil, err
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
			return nil, err
		}
		run = []exp.Descriptor{d}
	}
	if err := checkWorkload(c.sess.Workload, c.np, run); err != nil {
		return nil, err
	}
	o.Parallel = c.parallel
	o.Ckpt = c.ckptName
	c.sess.Opts = o
	return run, nil
}

// checkWorkload parses the -workload spec and, when -np pins the machine
// the workload experiment runs on and that experiment is selected, checks
// that every generated job fits it.
func checkWorkload(spec string, np int, run []exp.Descriptor) error {
	wk, err := exp.ParseWorkload(spec)
	if err != nil || np == 0 || !slices.ContainsFunc(run, func(d exp.Descriptor) bool { return d.Name == "workload" }) {
		return err
	}
	tenants, err := wk.Tenants()
	if err != nil {
		return err
	}
	return exp.CheckCapacity(tenants, np)
}

// validateCkptFlag rejects a -ckpt value the registry does not know; the
// empty default ("all headline arms") resolves to the registry's default
// and always passes.
func validateCkptFlag(name string) error {
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
