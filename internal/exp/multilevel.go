package exp

import "repro/internal/ckpt"

// MLRow is one multi-level checkpointing measurement: a production run that
// checkpoints every nc steps, with the local RAM-disk level absorbing all
// but every k-th checkpoint.
type MLRow struct {
	Strategy string  `col:"strategy"`
	NP       int     `col:"np"`
	Ckpts    int     `col:"ckpts"`
	TotalSec float64 `col:"ckpt time (s)" fmt:"%.1f"` // summed checkpoint step times
	WallSec  float64 `col:"wall (s)" fmt:"%.1f"`      // end-to-end production time
	PFSFiles int     `col:"PFS files"`
}

// MultiLevelStudy compares plain rbIO (every checkpoint to the PFS) against
// the SCR-style multi-level extension at several local:global cadences —
// the "future leadership systems" scenario the paper's related-work section
// sketches.
func MultiLevelStudy(o Options, np int) ([]MLRow, error) {
	const (
		steps = 8
		nc    = 2 // checkpoint every 2 steps -> 4 checkpoints
	)
	cases := []ckpt.Strategy{ckpt.MustNew("rbio", np)}
	for _, k := range []int{2, 4} {
		s := ckpt.MustNew("multilevel", np).(ckpt.MultiLevel)
		s.GlobalEvery = k
		cases = append(cases, s)
	}
	var rows []MLRow
	for _, strat := range cases {
		e, res, err := simulate(o, scenario{NP: np, Stream: streamNP}, paperRun(np, strat, steps, nc), "multilevel/"+strat.Name())
		if err != nil {
			return nil, err
		}
		rows = append(rows, MLRow{
			Strategy: strat.Name(),
			NP:       np,
			Ckpts:    len(res.Checkpoints),
			TotalSec: res.TotalCheckpoint(),
			WallSec:  res.Wall,
			PFSFiles: e.FS.NumFiles(),
		})
	}
	return rows, nil
}
