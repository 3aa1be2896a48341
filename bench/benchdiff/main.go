// Command benchdiff compares two perfbench result files workload by workload.
// For every end-to-end metric it prints both medians and quartiles, the
// delta, and a verdict against the bound BENCHMARK.json fixes:
//
//	better      the new median is better by more than the bound
//	worse       the new median is worse by more than the bound
//	unchanged   the medians differ by no more than the bound
//	unresolved  either side's quartile spread exceeds the bound, so the
//	            runs cannot tell; unless every new sample beats every old
//	            one, which reads as better
//
// Any increase of the failed-run ratio is worse. Deterministic per-layer
// counts must match exactly; a difference is reported as drift. Measured
// per-layer values are printed with their delta and no verdict.
//
// Usage, from the bench directory:
//
//	go run ./benchdiff old.json new.json
//
// The exit code is 1 if any verdict is worse or drift, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"repro/bench"
)

func main() {
	fl := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	specPath := fl.String("spec", "../BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-spec BENCHMARK.json] old.json new.json")
		os.Exit(2)
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	old, err := bench.ReadResult(fl.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cur, err := bench.ReadResult(fl.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if report(os.Stdout, spec, old, cur) {
		os.Exit(1)
	}
}

// Verdicts.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	drift      = "drift"
	missing    = "missing"
)

// verdict judges one end-to-end metric.
func verdict(m bench.Metric, old, cur bench.Summary) string {
	sign := 1.0 // +1 when a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	if old.Median == 0 {
		if cur.Median == 0 {
			return unchanged
		}
		return unresolved
	}
	change := sign * (cur.Median - old.Median) / old.Median // > 0 is worse
	if old.Spread() > m.Bound || cur.Spread() > m.Bound {
		if allBetter(sign, old.Samples, cur.Samples) {
			return better
		}
		return unresolved
	}
	switch {
	case change > m.Bound:
		return worse
	case change < -m.Bound:
		return better
	}
	return unchanged
}

// allBetter reports whether every new sample beats every old one.
func allBetter(sign float64, old, cur []float64) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, o := range old {
		for _, c := range cur {
			if sign*(c-o) >= 0 {
				return false
			}
		}
	}
	return true
}

// report prints the comparison and says whether it holds a regression.
func report(w io.Writer, spec *bench.Spec, old, cur *bench.Result) (regressed bool) {
	if old.Env.Seed != cur.Env.Seed || old.Env.CPU != cur.Env.CPU || old.Env.GOMAXPROCS != cur.Env.GOMAXPROCS {
		fmt.Fprintf(w, "warning: hosts differ: old %+v, new %+v\n", old.Env, cur.Env)
	}
	byName := map[string]bench.WorkloadResult{}
	for _, r := range cur.Workloads {
		byName[r.Name] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tdelta\tverdict")
	for _, o := range old.Workloads {
		c, ok := byName[o.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t%s\n", o.Name, missing)
			regressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			was, now := o.EndToEnd[m.Name], c.EndToEnd[m.Name]
			v := missing
			if was.N > 0 && now.N > 0 {
				v = verdict(m, was, now)
			}
			regressed = regressed || v == worse || v == missing
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s\n",
				o.Name, m.Name, m.Unit, was.Median, was.Q1, was.Q3, now.Median, now.Q1, now.Q3, delta(was.Median, now.Median), v)
		}
		v := unchanged
		if c.FailRatio() > o.FailRatio() {
			v, regressed = worse, true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%d/%d\t%d/%d\t\t%s\n", o.Name, o.Failed, o.Attempted, c.Failed, c.Attempted, v)

		names := make([]string, 0, len(o.PerLayer))
		for k := range o.PerLayer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			ov := o.PerLayer[k]
			cv, ok := c.PerLayer[k]
			v := "-"
			switch {
			case !ok:
				v = missing
			case ov.Exact && ov.Value != cv.Value:
				v = drift
			case ov.Exact:
				v = unchanged
			}
			regressed = regressed || v == drift || v == missing
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\n", o.Name, k, ov.Unit, ov.Value, cv.Value, delta(ov.Value, cv.Value), v)
		}
	}
	tw.Flush()
	return regressed
}

func delta(old, cur float64) string {
	if old == 0 {
		if cur == 0 {
			return "0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
}
