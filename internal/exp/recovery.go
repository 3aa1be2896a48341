package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/nekcem"
	"repro/internal/recover"
	"repro/internal/table"
)

// RecoveryRow is one cell of the closed-loop recovery study: a strategy
// family's measured lifecycle makespan at one per-component MTBF, next to
// the Daly model's prediction from the same measured constants.
type RecoveryRow struct {
	Strategy  string  `col:"strategy"`
	NP        int     `col:"np"`
	MTBFHours orDash  `col:"mtbf/comp (h)" fmt:"%.1f"` // per-component; 0 is the fault-free arm
	SysMTBF   orDash  `col:"sys mtbf (s)" fmt:"%.0f"`  // seconds; 0 for the fault-free arm
	C         float64 `col:"C (s)" fmt:"%.2f"`         // measured mean checkpoint cost, seconds
	R         float64 `col:"R (s)" fmt:"%.2f"`         // measured mean scan+restore per rollback, seconds

	Makespan float64 `col:"measured (s)" fmt:"%.1f"` // measured lifecycle wall seconds
	Daly     float64 `col:"daly (s)" fmt:"%.1f"`     // model prediction from (M, tau, C, R, W)
	Ratio    float64 `col:"ratio" fmt:"%.2fx"`       // Makespan / Daly

	Segments  int
	Rollbacks int               `col:"rollbacks"`
	Torn      int               `col:"torn"`   // torn epochs the restart scans detected
	Rework    int               `col:"rework"` // banked steps re-executed after rollbacks
	Kills     recover.KillStats `col:"kills t/s/i"`
}

// orDash is a measurement that is absent when zero, as on the fault-free
// arm: it prints as "-" then, and through its column's verb otherwise.
type orDash float64

func (v orDash) Format(f fmt.State, verb rune) {
	if v == 0 {
		f.Write([]byte("-"))
		return
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), float64(v))
}

// recoveryMultipliers ladder the per-component MTBF for the lifecycle
// study. A full lifecycle lasts minutes of simulated time (not the seconds
// of a single checkpoint step), so the ladder is far gentler than the
// single-step sweep's: the rungs land at roughly 0.3, 1.5 and 6 expected
// failures per fault-free makespan at the paper's 6h headline MTBF.
var recoveryMultipliers = []float64{8, 2, 0.5}

// recoveryFamily is one strategy family under lifecycle test, with the
// segment granularity its epoch cadence needs (multi-level must span
// GlobalEvery checkpoint intervals per launched segment so its periodic
// global flush happens).
type recoveryFamily struct {
	Strategy ckpt.Strategy
	SegCkpts int
}

func recoveryFamilies(np int) []recoveryFamily {
	ml := ckpt.MustNew("multilevel", np).(ckpt.MultiLevel)
	return []recoveryFamily{
		{ckpt.MustNew("1pfpp", np), 1},
		{ckpt.MustNew("coio", np), 1},
		{ckpt.MustNew("rbio", np), 1},
		{ml, ml.GlobalEvery},
	}
}

// recoveryCellOut is one executed lifecycle cell.
type recoveryCellOut struct {
	res   *recover.Result
	kills recover.KillStats
	ncomp int
}

// runRecoveryCell executes one full checkpoint/restart lifecycle: it builds
// the scenario like every run and then hands the pieces to the recover
// driver instead of a single solver run.
func runRecoveryCell(o Options, np int, fam recoveryFamily, work, ce int, spec *FaultSpec, label string) (*recoveryCellOut, error) {
	e, err := build(o, scenario{NP: np, Faults: spec, Lifecycle: true})
	if err != nil {
		return nil, err
	}
	log := e.epochLog()
	if b, ok := e.FS.(interface {
		OnLost(func(ion int, bytes int64, t float64))
	}); ok {
		// Burst-buffer tiers report unflushed-epoch loss into the manifest
		// log: epochs sealed but not yet verified at loss time are torn.
		// The fleet aggregates a fault event's loss across its nodes, so
		// ClassifyKills sees one consistent number per event.
		b.OnLost(func(_ int, _ int64, t float64) { log.BufferLoss(t) })
	}
	base := nekcem.PaperRun(np, fam.Strategy, 0, 0)
	base.RankUp = e.rankUp()
	res, err := recover.Run(e.K, recover.Config{
		FS:       e.FS,
		NewWorld: e.world,
		Base:     base,
		Log:      log, Work: work, CheckpointEvery: ce, SegmentCkpts: fam.SegCkpts,
		Injector: e.Inj,
		Nodes:    e.M.NumNodes(), IONs: e.M.NumPsets(), Servers: numServers(e.FS),
	})
	if err != nil {
		return nil, err
	}
	e.finish(label)
	out := &recoveryCellOut{res: res, ncomp: e.components()}
	if e.Inj != nil {
		out.kills = recover.ClassifyKills(log, e.Inj.Schedule(), res.End)
	}
	return out, nil
}

// RecoveryStudy measures closed-loop recovery for each strategy family:
// one fault-free lifecycle (calibrating the Daly constants and the fault
// horizon), then one lifecycle per MTBF rung with sampled kills, each
// rollback really scanning manifests and re-reading the picked epoch
// through the storage stack. Measured makespans sit next to the Daly
// prediction computed from the same cell's constants, so the gap is the
// part the first-order model does not carry (repair waits, detection lag,
// torn-epoch rework).
func RecoveryStudy(o Options, np int, mtbfHours float64, work, epochs int) ([]RecoveryRow, error) {
	if work <= 0 {
		return nil, fmt.Errorf("exp: recovery needs a positive work budget, got %d", work)
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("exp: recovery needs a positive epoch count, got %d", epochs)
	}
	ce := work / epochs
	if ce < 1 {
		ce = 1
	}
	families := recoveryFamilies(np)

	// Stage 1: fault-free arms, one per family, in parallel.
	free, err := runCells(o, families, func(fam recoveryFamily) (*recoveryCellOut, error) {
		name := fam.Strategy.Name()
		out, err := runRecoveryCell(o, np, fam, work, ce, nil, "recovery/"+name)
		if err != nil {
			return nil, fmt.Errorf("exp: recovery %s fault-free: %w", name, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: the MTBF ladder, horizon sized from each family's fault-free
	// makespan so sampled schedules cover even heavily-stretched lifecycles.
	cells, err := runCells(o, pairs(len(families), len(recoveryMultipliers)), func(c pair) (*recoveryCellOut, error) {
		fi, ri := c.i, c.j
		name, mult := families[fi].Strategy.Name(), recoveryMultipliers[ri]
		horizon := 25 * free[fi].res.Makespan
		if horizon < 600 {
			horizon = 600
		}
		if horizon > 3600 {
			horizon = 3600
		}
		seed := o.seed()
		seed ^= uint64(fi+1) * 0xbf58476d1ce4e5b9
		seed ^= uint64(ri+1) * 0x94d049bb133111eb
		out, err := runRecoveryCell(o, np, families[fi], work, ce, &FaultSpec{
			MTBF: mtbfHours * 3600 * mult, MTTR: 60, Shape: 1.2,
			Horizon: horizon, Seed: seed,
		}, fmt.Sprintf("recovery/%s/x%g", name, mult))
		if err != nil {
			return nil, fmt.Errorf("exp: recovery %s x%g: %w", name, mult, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []RecoveryRow
	for fi, fam := range families {
		f := free[fi]
		tau := float64(ce) * f.res.ComputeStep
		workSec := float64(work) * f.res.ComputeStep
		// A checkpoint step's measured time includes its solver step; the
		// Daly C is the overhead above compute.
		c0 := f.res.MeanCkpt() - f.res.ComputeStep
		if c0 < 0 {
			c0 = 0
		}
		// With no failures the model degenerates to work plus the
		// checkpoint bill.
		daly0 := workSec + float64(f.res.CkptCount)*c0
		rows = append(rows, RecoveryRow{
			Strategy: fam.Strategy.Name(), NP: np, C: c0,
			Makespan: f.res.Makespan, Daly: daly0, Ratio: f.res.Makespan / daly0,
			Segments: f.res.Segments,
		})
		for ri, mult := range recoveryMultipliers {
			cell := cells[fi*len(recoveryMultipliers)+ri]
			r := cell.res
			M := mtbfHours * 3600 * mult / float64(cell.ncomp)
			C := c0
			if r.CkptCount > 0 && r.ComputeStep > 0 {
				if c := r.MeanCkpt() - r.ComputeStep; c > 0 {
					C = c
				}
			}
			R := 0.0
			if r.Rollbacks > 0 {
				R = (r.ScanTime + r.RestartTime) / float64(r.Rollbacks)
			}
			// Daly's expected makespan at the interval the lifecycle
			// actually used.
			daly := dalyMakespan(M, C, R, tau, workSec)
			rows = append(rows, RecoveryRow{
				Strategy: fam.Strategy.Name(), NP: np,
				MTBFHours: orDash(mtbfHours * mult), SysMTBF: orDash(M),
				C: C, R: R,
				Makespan: r.Makespan, Daly: daly, Ratio: r.Makespan / daly,
				Segments: r.Segments, Rollbacks: r.Rollbacks,
				Torn: r.TornSeen, Rework: r.ReworkSteps,
				Kills: cell.kills,
			})
		}
	}
	return rows, nil
}

// RecoveryTable renders the recovery study.
func RecoveryTable(rows []RecoveryRow) string { return table.Of(rows) }
