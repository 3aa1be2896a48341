package exp

import (
	"runtime"

	"repro/internal/fsys"
)

// normalize resolves every zero-value default of Options in one place: the
// seed, the worker-pool size, the NP sweep, and the backend. All other code
// (runCheckpoint, the runner, the fault sweeps) consumes normalized values
// via the accessors below instead of re-implementing the defaults.
func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if len(o.NPs) == 0 {
		o.NPs = PaperNPs
	}
	if o.FS == "" {
		o.FS = fsys.DefaultBackend
	}
	return o
}

func (o Options) seed() uint64 { return o.normalize().Seed }

func (o Options) workers() int { return o.normalize().Parallel }

func (o Options) nps() []int { return o.normalize().NPs }

// npOr returns the sweep's single processor count if the options pin one,
// and def otherwise.
func (o Options) npOr(def int) int {
	if len(o.NPs) == 1 {
		return o.NPs[0]
	}
	return def
}
