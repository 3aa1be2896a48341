package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/gpfs"
	"repro/internal/nekcem"
)

// RestartRow is one restart-path measurement: how long a job takes to read
// a checkpoint back, per strategy layout. The paper motivates
// application-level checkpointing with restartability (Section II); this
// experiment measures the read side the evaluation leaves implicit.
type RestartRow struct {
	Strategy   string  `col:"strategy"`
	NP         int     `col:"np"`
	WriteSec   float64 `col:"write (s)" fmt:"%.1f"`
	RestartSec float64 `col:"restart read (s)" fmt:"%.1f"`
}

// RestartStudy writes one checkpoint per strategy and measures a fresh
// job's collective restart from it at the given scale.
func RestartStudy(o Options, np int) ([]RestartRow, error) {
	strategies := strategiesByName(np, "1pfpp", "coio", "rbio")
	var rows []RestartRow
	for _, strat := range strategies {
		// Job 1 writes the checkpoint; job 2 restarts from it, and its
		// presetup-free wall time up to restore completion is the restart
		// cost.
		e, err := build(o, scenario{NP: np, Stream: streamNP})
		if err != nil {
			return nil, err
		}
		res1, err := e.solve(nekcem.PaperRun(np, strat, 1, 1))
		if err != nil {
			return nil, err
		}
		t0 := e.K.Now()
		res2, err := e.solve(paperRestart(np, strat))
		if err != nil {
			return nil, err
		}
		if !res2.Restored {
			return nil, fmt.Errorf("exp: restart with %s did not restore", strat.Name())
		}
		e.finish("restart/" + strat.Name())
		rows = append(rows, RestartRow{
			Strategy:   strat.Name(),
			NP:         np,
			WriteSec:   res1.Checkpoints[0].StepTime(),
			RestartSec: res2.Wall - t0,
		})
	}
	return rows, nil
}

// AblateBlockSize sweeps the GPFS block size (lock and striping
// granularity) for the rbIO headline configuration — a file-system design
// knob the paper's tuning discussion (Section V-B) implies but could not
// vary on the production machine.
func AblateBlockSize(o Options, np int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, bs := range []int64{1 << 20, 4 << 20, 16 << 20} {
		r, err := runWith(o, np, ckpt.DefaultRbIO(), func(c *gpfs.Config) { c.BlockSize = bs })
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Ablation: "GPFS block size", Variant: fmt.Sprintf("%d MiB", bs>>20), NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
			Extra: fmt.Sprintf("%d token grants", r.FSStats.TokenGrants),
		})
	}
	return rows, nil
}
