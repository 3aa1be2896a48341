package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/nekcem"
)

// frontierNames are the asyncfrontier arms: the two strongest blocking
// strategies against the asynchronous one, all from the ckpt registry.
var frontierNames = []string{"rbio", "coio", "async"}

// AsyncFrontierRow is one strategy's point on the asynchronous checkpoint
// frontier: what the solver pays while blocked, when the data actually
// becomes durable, what the whole run costs, and — under injected faults —
// how stale the durable state is at the moments nodes die. Asynchronous
// checkpointing moves along this frontier rather than winning outright:
// blocked time collapses to the node-local snapshot, but epochs seal only
// when the background flush lands, so a badly-timed failure rolls back
// further.
type AsyncFrontierRow struct {
	Strategy   string  `col:"strategy"`
	NP         int     `col:"np"`
	BlockedSec float64 `col:"blocked (s)" fmt:"%.3f"`    // slowest checkpoint's solver-blocked phase
	FlushSec   float64 `col:"flush tail (s)" fmt:"%.2f"` // background flush tail past unblock (0 for sync arms)
	StepSec    float64 `col:"step (s)" fmt:"%.2f"`       // slowest checkpoint, snapshot start to durable
	Makespan   float64 `col:"makespan (s)" fmt:"%.1f"`   // fault-free simulated wall time of the whole run

	// Faulted phase (Trials independent runs under an accelerated MTBF).
	Trials      int     `col:"trials"`
	Kills       int     `col:"kills"`                    // node deaths that landed inside the runs
	AvgStaleSec float64 `col:"avg stale (s)" fmt:"%.2f"` // mean staleness of durable state at those deaths
	MaxStaleSec float64 `col:"max stale (s)" fmt:"%.2f"`
	LostTrials  int     `col:"lost"` // trials that lost checkpoint state outright
}

// frontierCell is one executed run of one arm.
type frontierCell struct {
	blockedSec float64
	flushSec   float64
	stepSec    float64
	makespan   float64
	stale      []float64 // staleness at each in-run node kill
	kills      int
	lost       bool
}

// frontierSteps/frontierEvery shape every frontier run: 150 solver steps
// with a checkpoint every 50th, three checkpoints total. The interval
// (~16s of compute) exceeds a full background flush, the production regime
// async targets — checkpoints come minutes apart, not back-to-back — so
// the overlap is real; the final checkpoint still exercises the
// end-of-run drain, whose flush tail the table reports.
const (
	frontierSteps = 150
	frontierEvery = 50
)

// AsyncFrontier measures the (blocked time, makespan, staleness) frontier
// at one scale: a fault-free multi-step run per arm, then trials
// independently-seeded faulted runs per arm at an accelerated MTBF (one 8x
// rung below the headline value, like the fault sweep's middle rung), with
// the staleness of durable state probed at every injected node death via
// the epoch-manifest log. trials <= 0 means the default 4. Cells fan out
// over the worker pool; every cell is an independent simulation, so rows
// are identical at any -parallel setting.
func AsyncFrontier(o Options, np int, mtbfHours float64, trials int) ([]AsyncFrontierRow, error) {
	if trials <= 0 {
		trials = 4
	}

	free := make([]*frontierCell, len(frontierNames))
	ferrs := make([]error, len(frontierNames))
	runPool(o.workers(), len(frontierNames), func(i int) {
		free[i], ferrs[i] = runFrontierCell(o, np, frontierNames[i], nil)
	})
	for i, err := range ferrs {
		if err != nil {
			return nil, fmt.Errorf("exp: asyncfrontier %s fault-free: %w", frontierNames[i], err)
		}
	}

	cells := make([]*frontierCell, len(frontierNames)*trials)
	cerrs := make([]error, len(cells))
	runPool(o.workers(), len(cells), func(idx int) {
		ai, ti := idx/trials, idx%trials
		// The horizon comfortably covers even a fault-stretched run; the
		// seed mixing matches the recovery study's per-cell recipe.
		horizon := 4 * free[ai].makespan
		if horizon < 150 {
			horizon = 150
		}
		seed := o.seed()
		seed ^= uint64(ai+1) * 0xbf58476d1ce4e5b9
		seed ^= uint64(ti+1) * 0x94d049bb133111eb
		cells[idx], cerrs[idx] = runFrontierCell(o, np, frontierNames[ai], &FaultSpec{
			MTBF: mtbfHours * 3600 / 8, MTTR: 60, Shape: 1.2,
			Horizon: horizon, Seed: seed,
		})
	})
	for idx, err := range cerrs {
		if err != nil {
			return nil, fmt.Errorf("exp: asyncfrontier %s trial %d: %w", frontierNames[idx/trials], idx%trials, err)
		}
	}

	rows := make([]AsyncFrontierRow, len(frontierNames))
	for ai, name := range frontierNames {
		f := free[ai]
		row := AsyncFrontierRow{
			Strategy:   name,
			NP:         np,
			BlockedSec: f.blockedSec,
			FlushSec:   f.flushSec,
			StepSec:    f.stepSec,
			Makespan:   f.makespan,
			Trials:     trials,
		}
		staleSum, staleN := 0.0, 0
		for ti := 0; ti < trials; ti++ {
			c := cells[ai*trials+ti]
			row.Kills += c.kills
			if c.lost {
				row.LostTrials++
			}
			for _, s := range c.stale {
				staleSum += s
				staleN++
				if s > row.MaxStaleSec {
					row.MaxStaleSec = s
				}
			}
		}
		if staleN > 0 {
			row.AvgStaleSec = staleSum / float64(staleN)
		}
		rows[ai] = row
	}
	return rows, nil
}

// runFrontierCell executes one multi-step run of one arm on the shared
// builder, so the single-step goldens pin this path's components too.
// Every run records epochs into a fresh manifest log; the staleness probe
// reads it at the fault schedule's node-kill instants.
func runFrontierCell(o Options, np int, name string, spec *FaultSpec) (*frontierCell, error) {
	strat := ckpt.MustNew(name, np)
	e, err := build(o, scenario{NP: np, Faults: spec})
	if err != nil {
		return nil, err
	}
	mlog := e.epochLog()
	// probe reads the staleness of durable state at every node kill up to t.
	probe := func(cell *frontierCell, t float64) *frontierCell {
		for _, ev := range e.Inj.Schedule().FailsIn(fault.Node, 0, t) {
			cell.kills++
			cell.stale = append(cell.stale, mlog.StalenessAt(ckpt.LevelGlobal, ev.Time))
		}
		return cell
	}
	rcfg := nekcem.PaperRun(np, strat, frontierSteps, frontierEvery)
	rcfg.Epochs = mlog.StartSegment(rcfg.Dir, 0, 0)
	rcfg.RankUp = e.rankUp()
	label := "asyncfrontier/" + name
	if spec != nil {
		label += fmt.Sprintf("/seed%d", spec.Seed)
	}
	defer e.finish(label)
	res, err := e.solve(rcfg)
	if err != nil {
		if spec != nil && fsys.Unavailable(err) {
			// A sync strategy without a fault-aware path hit dead storage
			// mid-collective: the trial's state is lost, and the staleness
			// at the kills that did land is still measurable.
			return probe(&frontierCell{lost: true, makespan: e.K.Now()}, e.K.Now()), nil
		}
		return nil, err
	}
	cell := &frontierCell{makespan: res.Wall}
	for _, c := range res.Checkpoints {
		if b := c.BlockedTime(); b > cell.blockedSec {
			cell.blockedSec = b
		}
		if st := c.StepTime(); st > cell.stepSec {
			cell.stepSec = st
		}
		if fl := c.MaxDurable - c.MaxEnd; fl > cell.flushSec {
			cell.flushSec = fl
		}
		cell.lost = cell.lost || c.Lost()
	}
	return probe(cell, res.Wall), nil
}
