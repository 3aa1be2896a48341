package exp

import (
	"repro/internal/ckpt"
	"repro/internal/machine"
)

// sweepStrategies are the three-approach subset the machine-shape sweeps
// use: the paper's strongest strategy, the collective baseline, and the
// naive one — enough to see whether a machine knob reorders them.
func sweepStrategies(np int) []ckpt.Strategy {
	return strategiesByName(np, "rbio", "coio", "1pfpp")
}

// MapRow is one (placement policy, strategy) measurement of the rank-mapping
// sweep: how much of checkpoint performance is an artifact of where ranks
// land on the fabric.
type MapRow struct {
	Policy   string  `col:"placement"`
	Strategy string  `col:"strategy"`
	NP       int     `col:"np"`
	GBps     float64 `col:"GB/s" fmt:"%.2f"`
	StepSec  float64 `col:"step (s)" fmt:"%.1f"`
}

// MapSweep runs the sweep strategies under every registered placement
// policy at the given processor count, holding machine, backend, and seed
// fixed. Each cell is an independent simulation on the worker pool, so the
// table is identical at any -parallel setting.
func MapSweep(o Options, np int) ([]MapRow, error) {
	strategies := sweepStrategies(np)
	policies := machine.PlacementNames()
	var jobs []Job
	for _, pol := range policies {
		for _, strat := range strategies {
			jobs = append(jobs, Job{NP: np, Strategy: strat, Map: pol})
		}
	}
	return sweep(o, jobs, func(i int, r *Run) MapRow {
		return MapRow{
			Policy: jobs[i].Map, Strategy: jobs[i].Strategy.Name(), NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
		}
	})
}

// PsetRatioRow is one (compute:ION ratio, strategy) measurement of the
// pset-ratio sweep: the paper fixes 64 compute nodes per ION; this asks how
// the approaches would rank had the machine been provisioned differently.
type PsetRatioRow struct {
	NodesPerPset int     `col:"nodes:ION" fmt:"%d:1"`
	Strategy     string  `col:"strategy"`
	NP           int     `col:"np"`
	GBps         float64 `col:"GB/s" fmt:"%.2f"`
	StepSec      float64 `col:"step (s)" fmt:"%.1f"`
}

// PsetRatios is the compute:ION ratio sweep, bracketing Intrepid's 64:1.
var PsetRatios = []int{16, 32, 64, 128}

// PsetRatio runs the sweep strategies across compute:ION ratios at the
// given processor count. Ratios needing more psets than the partition has
// nodes are skipped.
func PsetRatio(o Options, np int) ([]PsetRatioRow, error) {
	strategies := sweepStrategies(np)
	var jobs []Job
	for _, ratio := range PsetRatios {
		d, err := machine.Lookup(o.Machine)
		if err != nil {
			return nil, err
		}
		if nodes := np / d.Config(np).RanksPerNode; ratio > nodes {
			continue
		}
		for _, strat := range strategies {
			jobs = append(jobs, Job{NP: np, Strategy: strat, NodesPerPset: ratio})
		}
	}
	return sweep(o, jobs, func(i int, r *Run) PsetRatioRow {
		return PsetRatioRow{
			NodesPerPset: jobs[i].NodesPerPset, Strategy: jobs[i].Strategy.Name(), NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
		}
	})
}
