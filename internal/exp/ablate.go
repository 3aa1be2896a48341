package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/gpfs"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
)

func defaultHints() mpiio.Hints { return mpiio.DefaultHints() }

// AblationRow is one variant measurement of a design-choice ablation.
type AblationRow struct {
	Ablation string  `col:"ablation"`
	Variant  string  `col:"variant"`
	NP       int     `col:"np"`
	GBps     float64 `col:"GB/s" fmt:"%.2f"`
	StepSec  float64 `col:"step (s)" fmt:"%.2f"`
	Extra    string  `col:"detail"` // ablation-specific detail (revocations, spikes, ...)
}

// runWith executes one checkpoint step with a custom GPFS configuration.
func runWith(o Options, np int, strat ckpt.Strategy, mod func(*gpfs.Config)) (*Run, error) {
	gcfg := gpfs.DefaultConfig()
	if mod != nil {
		mod(&gcfg)
	}
	e, res, err := simulate(o, scenario{NP: np, GPFSCfg: &gcfg}, nekcem.PaperRun(np, strat, 1, 1), "ablation/"+strat.Name())
	if err != nil {
		return nil, err
	}
	return &Run{
		NP:      np,
		S:       res.Checkpoints[0].Bytes,
		Agg:     res.Checkpoints[0],
		PerRank: res.PerRank,
		Result:  res,
		FSStats: *e.Stats,
	}, nil
}

// AblateAlignment compares coIO nf=1 with and without file-domain alignment
// (the BG/P ADIO block-boundary optimization, reference [25] of the paper).
func AblateAlignment(o Options, np int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, align := range []bool{true, false} {
		h := defaultHints()
		h.AlignDomains = align
		r, err := runWith(o, np, ckpt.CoIO{NumFiles: 1, Hints: h}, nil)
		if err != nil {
			return nil, err
		}
		variant := "aligned"
		if !align {
			variant = "unaligned"
		}
		rows = append(rows, AblationRow{
			Ablation: "domain alignment", Variant: variant, NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
			Extra: fmt.Sprintf("%d token revocations", r.FSStats.TokenRevokes),
		})
	}
	return rows, nil
}

// AblateWriterBuffer compares rbIO nf=ng with and without multi-field
// writer buffering — the paper's explanation for nf=ng beating nf=1.
func AblateWriterBuffer(o Options, np int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, buffered := range []bool{true, false} {
		s := ckpt.DefaultRbIO()
		s.BufferFields = buffered
		r, err := runWith(o, np, s, nil)
		if err != nil {
			return nil, err
		}
		variant := "buffered fields"
		if !buffered {
			variant = "per-field commit"
		}
		rows = append(rows, AblationRow{
			Ablation: "writer buffering", Variant: variant, NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
		})
	}
	return rows, nil
}

// AblateGroupRatio sweeps rbIO's np:ng ratio (the paper discusses 64:1,
// 32:1 and 16:1).
func AblateGroupRatio(o Options, np int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, gs := range []int{16, 32, 64} {
		r, err := runWith(o, np, DefaultRbIOWithGroup(gs), nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Ablation: "np:ng ratio", Variant: fmt.Sprintf("%d:1", gs), NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
			Extra: fmt.Sprintf("ng=%d writers", np/gs),
		})
	}
	return rows, nil
}

// AblateIONCache compares the ION write-behind cache against synchronous
// commits (the paper's remark that PVFS ran with caching off).
func AblateIONCache(o Options, np int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, wb := range []bool{true, false} {
		r, err := runWith(o, np, ckpt.DefaultRbIO(), func(c *gpfs.Config) { c.WriteBehind = wb })
		if err != nil {
			return nil, err
		}
		variant := "write-behind"
		if !wb {
			variant = "synchronous (cache off)"
		}
		rows = append(rows, AblationRow{
			Ablation: "ION cache", Variant: variant, NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
		})
	}
	return rows, nil
}

// AblateNoise compares the normal-load noise model against a quiet machine
// for the configuration the noise hurts most: coIO 64:1 at 64K ranks.
func AblateNoise(o Options, np int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, quiet := range []bool{false, true} {
		oo := o
		oo.Quiet = quiet
		r, err := runWith(oo, np, ckpt.CoIO{NumFiles: np / 64, Hints: defaultHints()}, nil)
		if err != nil {
			return nil, err
		}
		variant := "normal load"
		if quiet {
			variant = "quiet machine"
		}
		rows = append(rows, AblationRow{
			Ablation: "storage noise", Variant: variant, NP: np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime(),
			Extra: fmt.Sprintf("%d spikes", r.FSStats.NoiseSpikes),
		})
	}
	return rows, nil
}
