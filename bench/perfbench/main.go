// Command perfbench is the repository benchmark: it times the simulator end
// to end on four workloads and measures each layer from outside, through the
// public functions of exp, nekcem, sim, machine, mpi, mpiio, the storage
// backends, ckpt and recover.
//
// One process generates the load in a closed loop: each repetition runs in a
// fresh child process (GOMAXPROCS=2, exp.Options.Parallel=1), one at a time,
// the next starting only after the previous one ends. A fresh child is what
// a user's iobench invocation pays, so there is no warm-up, and its rusage
// gives a clean peak RSS. Every repetition is paired with a child that times
// the workload's zero-step set-up.
//
// Run from the bench directory:
//
//	go run ./perfbench -seed 1 -out result.json    # all workloads, 3 reps + 1 traced each
//	go run ./perfbench -workload fig5-4k -seconds 20 -trace 1
//
// With -workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Without it, every
// workload is measured both ways, a table is printed, and -out writes a
// result file for benchdiff.
//
// Outputs are checked on every repetition: at seed 1 against the committed
// goldens, at any seed repetition against repetition and traced against
// untraced. A mismatch counts as a failed run and makes the exit code 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/bench"
)

func main() {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childProcs is every child's GOMAXPROCS, fixed so hosts with more cores
// run the same configuration.
const childProcs = 2

// config is one measurement's settings.
type config struct {
	seed    uint64
	reps    int           // minimum untraced repetitions
	seconds time.Duration // keep repeating until this much time has passed
	traced  bool          // add the traced repetition and the probes
	smoke   bool
	update  bool // rewrite the seed-1 golden from this run's output
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "measure one workload and print the result as one JSON line (default: all, as tables)")
	seed := fl.Uint64("seed", 1, "workload seed; seed 1 is checked against the committed goldens")
	seconds := fl.Float64("seconds", 0, "repeat untraced repetitions until this many seconds have passed")
	traceFlag := fl.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	reps := fl.Int("reps", 3, "minimum untraced repetitions per workload")
	smoke := fl.Bool("smoke", false, "run every workload at np 64-1024 (outputs are not golden-checked)")
	out := fl.String("out", "", "write the result file to this path (all-workload mode)")
	update := fl.Bool("update", false, "rewrite testdata goldens from this run (seed 1, run from the bench directory)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *reps < 1 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: want -reps >= 1, -seconds >= 0, -trace 0|1 and no arguments")
		return 2
	}
	if *update && (*seed != 1 || *smoke) {
		fmt.Fprintln(stderr, "perfbench: -update needs seed 1 at full size")
		return 2
	}
	c := config{seed: *seed, reps: *reps, seconds: time.Duration(*seconds * float64(time.Second)), smoke: *smoke, update: *update}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		c.traced = *traceFlag == 1
		// A one-workload run must end within 180 s; a hung child is killed.
		ctx, cancel := context.WithTimeout(context.Background(), c.seconds+150*time.Second)
		defer cancel()
		r, err := measure(ctx, w, c, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		ms := map[string]any{}
		if c.traced {
			for k, v := range r.PerLayer {
				ms[k] = map[string]any{"value": v.Value, "unit": v.Unit}
			}
		} else {
			for k, s := range r.EndToEnd {
				ms[k] = map[string]any{"value": s.Median, "unit": s.Unit}
			}
		}
		line, _ := json.Marshal(map[string]any{
			"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
		})
		fmt.Fprintln(stdout, string(line))
		if r.Failed > 0 {
			return 1
		}
		return 0
	}

	c.traced = true
	res := &bench.Result{Env: stamp(c)}
	code := 0
	for _, w := range workloads {
		r, err := measure(context.Background(), w, c, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if r.Failed > 0 {
			code = 1
		}
		res.Workloads = append(res.Workloads, *r)
		printWorkload(stdout, *r)
	}
	if *out != "" {
		if err := bench.WriteResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return code
}

// measure runs one workload: untraced repetitions, each after a set-up
// child, until both c.reps and c.seconds are reached; then, if c.traced, one
// traced repetition and the probes. A child that errors ends the loop; its
// run counts as failed.
func measure(ctx context.Context, w workload, c config, logw io.Writer) (*bench.WorkloadResult, error) {
	r := &bench.WorkloadResult{Name: w.name, EndToEnd: map[string]bench.Summary{}, PerLayer: map[string]bench.Value{}}
	base := []string{"-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10)}
	if c.smoke {
		base = append(base, "-smoke")
	}
	spawnKind := func(kind string, extra ...string) (childReport, float64, error) {
		r.Attempted++
		rep, rss, err := spawn(ctx, append(append([]string{"-kind", kind}, base...), extra...))
		if err != nil {
			r.Failed++
		}
		return rep, rss, err
	}

	// The reference output: the golden at seed 1, otherwise the first
	// repetition's.
	ref, haveRef := "", false
	if c.seed == 1 && !c.smoke && !c.update {
		if ref, haveRef = bench.Golden(w.name); !haveRef {
			return nil, fmt.Errorf("%s: no golden at %s; run with -update from the bench directory", w.name, bench.GoldenPath(w.name))
		}
	}
	check := func(what, out string) {
		if !haveRef {
			ref, haveRef = out, true
			return
		}
		if out != ref {
			r.Failed++
			fmt.Fprintf(logw, "perfbench: %s: %s output differs from the reference:\n%s", w.name, what, out)
		}
	}

	var wall, setupS, rss, gc, alloc []float64
	start := time.Now()
	for i := 0; i < c.reps || time.Since(start) < c.seconds; i++ {
		s, _, err := spawnKind(kindSetup)
		if err != nil {
			fmt.Fprintf(logw, "perfbench: %s: set-up: %v\n", w.name, err)
			break
		}
		setupS = append(setupS, s.Wall)
		it, peak, err := spawnKind(kindIter)
		if err != nil {
			fmt.Fprintf(logw, "perfbench: %s: repetition %d: %v\n", w.name, i+1, err)
			break
		}
		check(fmt.Sprintf("repetition %d", i+1), it.Out)
		wall = append(wall, it.Wall)
		rss = append(rss, peak)
		gc = append(gc, it.Metrics["go.gc_cycles"])
		alloc = append(alloc, it.Metrics["go.alloc_bytes"])
	}
	if c.update && haveRef {
		if err := os.WriteFile(bench.GoldenPath(w.name), []byte(ref), 0o644); err != nil {
			return nil, err
		}
	}
	r.EndToEnd["wall_s"] = bench.Summarize("s", wall)
	r.EndToEnd["setup_s"] = bench.Summarize("s", setupS)
	r.EndToEnd["peak_rss_mb"] = bench.Summarize("MB", rss)
	if !c.traced || r.Failed > 0 {
		return r, nil
	}

	lay := map[string]float64{}
	if t, _, err := spawnKind(kindIter, "-traced"); err != nil {
		fmt.Fprintf(logw, "perfbench: %s: traced repetition: %v\n", w.name, err)
	} else {
		check("traced repetition", t.Out)
		lay = t.Metrics
		lay["trace.overhead_x"] = t.Wall / r.EndToEnd["wall_s"].Median
	}
	if p, _, err := spawnKind(kindProbe); err != nil {
		fmt.Fprintf(logw, "perfbench: %s: probes: %v\n", w.name, err)
	} else {
		for k, v := range p.Metrics {
			lay[k] = v
		}
	}
	// Runtime statistics describe the untraced repetitions; the traced
	// one's would include the recorder's allocations.
	_, lay["go.gc_cycles"], _ = bench.Quartiles(gc)
	_, lay["go.alloc_bytes"], _ = bench.Quartiles(alloc)
	lay["sim.events_per_s"] = lay["sim.events"] / r.EndToEnd["wall_s"].Median
	for _, m := range perLayer {
		r.PerLayer[m.name] = bench.Value{Unit: m.unit, Value: lay[m.name], Exact: m.exact}
	}
	return r, nil
}

// spawn runs one child to completion and returns its report and peak RSS in
// MB. The child inherits the environment except for the runtime settings,
// which are fixed so every host runs the same configuration.
func spawn(ctx context.Context, args []string) (childReport, float64, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMEMLIMIT", "GOMAXPROCS", "GODEBUG", childEnv:
			continue
		}
		cmd.Env = append(cmd.Env, kv)
	}
	cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(childProcs), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, 0, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, 0, fmt.Errorf("child %s: bad report: %w", strings.Join(args, " "), err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return rep, 0, errors.New("no rusage for child")
	}
	return rep, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// stamp describes the host for the result file.
func stamp(c config) bench.Env {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return bench.Env{
		Go: runtime.Version(), GOMAXPROCS: childProcs, NProc: runtime.NumCPU(), CPU: cpu,
		When: time.Now().UTC().Format(time.RFC3339), Seed: c.seed, Reps: c.reps,
	}
}

func printWorkload(w io.Writer, r bench.WorkloadResult) {
	fmt.Fprintf(w, "== %s: %d runs, %d failed ==\n", r.Name, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn")
	for _, m := range endToEnd {
		s := r.EndToEnd[m.name]
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\n", m.name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	tw.Flush()
	if len(r.PerLayer) == 0 {
		return
	}
	names := make([]string, 0, len(r.PerLayer))
	for k := range r.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(tw, "per-layer\tunit\tvalue")
	for _, k := range names {
		v := r.PerLayer[k]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\n", k, v.Unit, v.Value)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
