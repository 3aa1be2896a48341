package exp

import "repro/internal/fsys"

// FSRow is one (file system, strategy) measurement of the backend
// comparison the paper wanted to run (Section V-C1) but could not measure
// fairly on the real machine because PVFS ran with client caching disabled.
// The simulation can hold everything else fixed, which is exactly what the
// paper says made the hardware comparison "weak and pointless" to publish.
// The burst-buffer arm extends the comparison to the ION-local tier later
// systems added.
type FSRow struct {
	FS       string  `col:"file system"`
	Strategy string  `col:"strategy"`
	NP       int     `col:"np"`
	GBps     float64 `col:"GB/s" fmt:"%.2f"`
	StepSec  float64 `col:"step (s)" fmt:"%.1f"`
}

// FileSystems lists the selectable storage backends, in presentation order.
// Every backend is a policy composition over the shared storage core
// (internal/storage), so each experiment runs unchanged on any of them.
var FileSystems = []fsys.Backend{"gpfs", "pvfs", "bbuf"}

// FSComparison runs the paper's strongest strategies on every backend at
// the given processor count.
func FSComparison(o Options, np int) ([]FSRow, error) {
	return FSComparisonOn(o, np, FileSystems...)
}

// FSComparisonOn runs the comparison on the named backends only. Each
// (backend, strategy) cell is an independent simulation, so the cells run on
// the experiment worker pool; results are identical at any pool size.
func FSComparisonOn(o Options, np int, fsNames ...fsys.Backend) ([]FSRow, error) {
	strategies := strategiesByName(np, "rbio", "coio", "1pfpp")
	var jobs []Job
	for _, fsName := range fsNames {
		for _, strat := range strategies {
			jobs = append(jobs, Job{NP: np, Strategy: strat, FS: fsName})
		}
	}
	return sweep(o, jobs, func(i int, r *Run) FSRow {
		return FSRow{
			FS: string(jobs[i].FS), Strategy: jobs[i].Strategy.Name(), NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
		}
	})
}
