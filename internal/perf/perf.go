// Package perf holds the performance plumbing shared by the iobench binary,
// the repository benchmarks and the bench/ harness: a process-wide GC
// tuning knob for simulation workloads.
package perf

import (
	"os"
	"runtime/debug"
)

// TuneGC relaxes the garbage collector for simulation workloads. A 64K-rank
// simulation holds gigabytes of live, mostly-static structure (goroutine
// stacks, rank state, pooled events); the default GOGC=100 re-marks all of it
// on every modest allocation burst, and each cycle also shrinks tens of
// thousands of goroutine stacks that the next phase regrows. Raising the
// target measurably cuts wall-clock time (~6% end to end at 64K ranks) at the
// cost of proportionally more heap headroom. An explicit GOGC environment
// setting wins: callers who asked for a specific collector behavior keep it.
func TuneGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(250)
	}
}
