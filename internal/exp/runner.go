package exp

import (
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/fsys"
)

// Job is one independent simulation: a single coordinated checkpoint step of
// a strategy at a processor count. Jobs carry everything a worker needs, so a
// set of them can run in any order on any goroutine.
type Job struct {
	NP       int
	Strategy ckpt.Strategy
	WithLog  bool         // collect per-op records (costs memory at 64K)
	FS       fsys.Backend // storage backend; "" defers to Options.FS (default gpfs)
	// Map overrides the placement policy for this job only; "" defers to
	// Options.Map.
	Map string
	// NodesPerPset, when positive, overrides the preset's compute:ION ratio
	// (the psetratio experiment's sweep variable).
	NodesPerPset int
	// BBNodes and BBDrain override the burst-buffer fleet size and drain
	// policy for this job only (the bbsize experiment's sweep variables);
	// zero values defer to Options.
	BBNodes int
	BBDrain string
	// Faults, when set, arms a fault injector on the job's kernel before the
	// world spawns. The job then reports a FaultOutcome in its Run; storage
	// unavailability becomes a lost-checkpoint outcome instead of an error.
	Faults *FaultSpec
}

// runJob executes one job's simulation; a package variable only so the
// drain test can observe which jobs a failing pool actually starts.
var runJob = runCheckpoint

// RunSet executes the jobs on the worker pool (runCells) and returns their
// results in input order. Each job runs a complete simulation on its own
// kernel with its own seeded RNG and touches no shared state, so the
// results — simulated times included — are bit-identical to a serial run
// regardless of the worker count or GOMAXPROCS; only the wall-clock time
// changes.
func RunSet(o Options, jobs []Job) ([]*Run, error) {
	return runCells(o, jobs, func(j Job) (*Run, error) { return runJob(o, j) })
}

// runCells runs every cell on a pool of o.workers() workers, the calling
// goroutine one of them, and returns the results in input order. The error
// returned is the first in input order, and once a cell has failed, cells
// not yet started are abandoned. Every pooled experiment runs through it.
func runCells[C, R any](o Options, cells []C, run func(C) (R, error)) ([]R, error) {
	results := make([]R, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool // a cell errored; abandon the rest unstarted
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(cells) || failed.Load() {
				return
			}
			if results[i], errs[i] = run(cells[i]); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(o.workers(), len(cells)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sweep runs the jobs through RunSet and maps each run to its row; row gets
// the job's index and its run.
func sweep[R any](o Options, jobs []Job, row func(i int, r *Run) R) ([]R, error) {
	runs, err := RunSet(o, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]R, len(runs))
	for i, r := range runs {
		rows[i] = row(i, r)
	}
	return rows, nil
}

// pair is one cell of a two-level grid: outer index i, inner index j.
type pair struct{ i, j int }

// pairs lays out an n x m grid in row-major order.
func pairs(n, m int) []pair {
	out := make([]pair, 0, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out = append(out, pair{i, j})
		}
	}
	return out
}

// allApproaches are the indices of the paper's five headline approaches.
var allApproaches = []int{0, 1, 2, 3, 4}

// RunAll executes the headline grid — every requested approach at every
// processor count of the sweep — on the worker pool and returns the runs in
// sweep order (np-major, approach-minor), the order the figures print in.
// Passing no approach indices runs all five.
func RunAll(o Options, approaches ...int) ([]*Run, error) {
	if len(approaches) == 0 {
		approaches = allApproaches
	}
	return RunSet(o, headlineJobs(o, approaches))
}

// headlineJobs lays out the headline grid in sweep order.
func headlineJobs(o Options, approaches []int) []Job {
	var jobs []Job
	for _, np := range o.nps() {
		all := Approaches(np)
		for _, ai := range approaches {
			jobs = append(jobs, Job{NP: np, Strategy: all[ai]})
		}
	}
	return jobs
}
