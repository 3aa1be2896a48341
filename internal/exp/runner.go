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

// RunSet executes the jobs on a worker pool and returns their results in
// input order. Each job runs a complete simulation on its own kernel with its
// own seeded RNG and touches no shared state, so the results — simulated
// times included — are bit-identical to a serial run regardless of the worker
// count or GOMAXPROCS; only the wall-clock time changes. The first error (in
// input order) is returned, and unstarted jobs are abandoned once any job has
// failed.
func RunSet(o Options, jobs []Job) ([]*Run, error) {
	results := make([]*Run, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool // any job errored; skip the rest unstarted
	runPool(o.workers(), len(jobs), func(i int) {
		if failed.Load() {
			return
		}
		if results[i], errs[i] = runJob(o, jobs[i]); errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runPool executes n index jobs on a bounded worker pool. Results land in
// caller-owned slots, so the outcome is independent of the worker count. A
// one-worker pool runs on the calling goroutine.
func runPool(workers, n int, run func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// RunAll executes the headline grid — every requested approach at every
// processor count of the sweep — on the worker pool and returns the runs in
// sweep order (np-major, approach-minor), the order the figures print in.
// Passing no approach indices runs all five.
func RunAll(o Options, approaches ...int) ([]*Run, error) {
	if len(approaches) == 0 {
		approaches = []int{0, 1, 2, 3, 4}
	}
	var jobs []Job
	for _, np := range o.nps() {
		all := Approaches(np)
		for _, ai := range approaches {
			jobs = append(jobs, Job{NP: np, Strategy: all[ai]})
		}
	}
	return RunSet(o, jobs)
}
