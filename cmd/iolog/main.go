// Command iolog analyzes a Darshan-style I/O trace written by cmd/nekcem
// (-log): aggregate statistics, the per-rank time distribution (Figures
// 9-11 of the paper) and the write-activity timeline (Figure 12). With
// -metrics it instead reads a simulation trace written by `iobench -trace`
// and prints each run's aggregated per-layer metrics tables.
//
// Usage:
//
//	nekcem -np 4096 -ckpt rbio -log trace.json
//	iolog trace.json
//	iolog -ranks 4096 -dt 0.25 trace.json
//	iobench -exp fig5 -trace sim.json && iolog -metrics sim.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/iolog"
	"repro/internal/table"
	"repro/internal/trace"
)

func main() {
	var (
		ranks   = flag.Int("ranks", 0, "rank count for the distribution (0: infer from the trace)")
		dt      = flag.Float64("dt", 0.5, "activity timeline bin width in seconds")
		metrics = flag.Bool("metrics", false, "treat the argument as an iobench -trace file and print its per-run metrics tables")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iolog [flags] trace.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *metrics {
		tf, err := trace.ReadFile(f)
		f.Close()
		exitBad(err)
		if len(tf.Metrics) == 0 {
			fmt.Fprintln(os.Stderr, "iolog: no metrics in trace (written by an older iobench?)")
			os.Exit(1)
		}
		for _, m := range tf.Metrics {
			fmt.Printf("%s\n", m.Table())
		}
		return
	}
	log, err := iolog.ReadJSON(f)
	f.Close()
	exitBad(err)
	n := *ranks
	if n == 0 {
		n = log.Ranks()
	}
	times, err := log.PerRankTime(n)
	exitBad(err)
	bins, err := log.Activity(*dt, iolog.OpWrite)
	exitBad(err)

	s := log.Summarize()
	fmt.Printf("trace: %d records, %.2f GB written, %.2f GB read, span [%.2f, %.2f] s, write bandwidth %.2f GB/s\n\n",
		s.Ops, float64(s.BytesWritten)/1e9, float64(s.BytesRead)/1e9, s.FirstStart, s.LastEnd, s.Bandwidth/1e9)

	qs := iolog.Quantiles(times, 0, 0.25, 0.5, 0.75, 0.95, 1)
	fmt.Println("per-rank I/O time distribution (Figures 9-11 style):")
	fmt.Println(table.Text(
		[]string{"min", "p25", "median", "p75", "p95", "max"},
		[][]string{{
			fmt.Sprintf("%.3f", qs[0]), fmt.Sprintf("%.3f", qs[1]),
			fmt.Sprintf("%.3f", qs[2]), fmt.Sprintf("%.3f", qs[3]),
			fmt.Sprintf("%.3f", qs[4]), fmt.Sprintf("%.3f", qs[5]),
		}}))

	fmt.Println("write-activity timeline (Figure 12 style):")
	rows := [][]string{}
	for _, bin := range bins {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", bin.T),
			fmt.Sprint(bin.Writers),
			fmt.Sprintf("%.1f", float64(bin.Bytes) / *dt / 1e6),
		})
	}
	fmt.Println(table.Text([]string{"t (s)", "active writers", "MB/s"}, rows))
}

// exitBad exits 2 on a malformed log (iolog.ErrFormat), a malformed -metrics
// trace (trace.ErrFormat, the only error trace.ReadFile returns) or a -ranks
// or -dt out of range (iolog.ErrRange), before any output.
func exitBad(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
