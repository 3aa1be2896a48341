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
// cost of proportionally more heap headroom.
//
// The headroom gives way when memory runs short: a soft memory limit of
// three quarters of physical memory makes the collector run more often as
// the heap nears it, so a run that fits keeps GOGC=250's speed and a run
// that would not fit still finishes. An explicit GOGC or GOMEMLIMIT
// environment setting wins over the value TuneGC would pick for it: callers
// who asked for a specific collector behavior keep it.
func TuneGC() {
	percent, limit := gcSettings(os.Getenv, physMem())
	if percent >= 0 {
		debug.SetGCPercent(percent)
	}
	if limit >= 0 {
		debug.SetMemoryLimit(limit)
	}
}

// gcSettings returns the GC percent and soft memory limit TuneGC applies,
// -1 for each one it leaves alone: one set in the environment, or the limit
// when physical memory is unknown (physMem 0).
func gcSettings(getenv func(string) string, physMem uint64) (percent int, limit int64) {
	percent, limit = -1, -1
	if getenv("GOGC") == "" {
		percent = 250
	}
	if getenv("GOMEMLIMIT") == "" && physMem > 0 {
		limit = int64(physMem / 4 * 3)
	}
	return percent, limit
}
