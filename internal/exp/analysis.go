package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
)

// Eq1Result is the paper's production-time improvement (Equation 1):
// (Ratio_1PFPP + nc) / (Ratio_rbIO + nc), plus the directly measured
// end-to-end improvement from running nc solver steps with one checkpoint
// under both strategies.
type Eq1Result struct {
	NP         int     `col:"np"`
	NC         int     `col:"nc"`
	Ratio1PFPP float64 `col:"Ratio(1PFPP)" fmt:"%.0f"`
	RatioRbIO  float64 `col:"Ratio(rbIO)" fmt:"%.0f"`
	Formula    float64 `col:"Eq(1) improvement" fmt:"%.1fx"`   // Equation (1)
	Measured   float64 `col:"measured end-to-end" fmt:"%.1fx"` // 1PFPP over rbIO production seconds
}

// production runs nc solver steps with a checkpoint at step nc and returns
// the end-to-end time and the checkpoint/compute ratio.
func production(o Options, np, nc int, strat ckpt.Strategy) (wall, ratio float64, err error) {
	_, res, err := simulate(o, scenario{NP: np, Stream: streamNP}, nekcem.PaperRun(np, strat, nc, nc), "eq1/"+strat.Name())
	if err != nil {
		return 0, 0, err
	}
	return res.Wall, res.Checkpoints[0].StepTime() / res.ComputeStep, nil
}

// Eq1 evaluates the production improvement of rbIO over 1PFPP at checkpoint
// frequency nc (the paper uses nc = 20 and reports ~25x).
func Eq1(o Options, np, nc int) (*Eq1Result, error) {
	w1, r1, err := production(o, np, nc, ckpt.OnePFPP{})
	if err != nil {
		return nil, err
	}
	w2, r2, err := production(o, np, nc, DefaultRbIOWithGroup(64))
	if err != nil {
		return nil, err
	}
	return &Eq1Result{
		NP: np, NC: nc,
		Ratio1PFPP: r1, RatioRbIO: r2,
		Formula:  (r1 + float64(nc)) / (r2 + float64(nc)),
		Measured: w1 / w2,
	}, nil
}

// SpeedupResult evaluates the paper's Section V-C2 analysis: the total
// blocked processor-time of coIO versus rbIO, measured (Equation 2 over the
// per-rank blocking) and analytic (Equation 7: (np/ng)*(BW_rbIO/BW_coIO)).
type SpeedupResult struct {
	NP       int     `col:"np"`
	TcoIO    float64 `col:"T_coIO (rank-s)" fmt:"%.3g"`   // sum over ranks of blocked seconds, coIO 64:1
	TrbIO    float64 `col:"T_rbIO (rank-s)" fmt:"%.3g"`   // sum over ranks of blocked seconds, rbIO 64:1
	Measured float64 `col:"measured speedup" fmt:"%.0fx"` // TcoIO / TrbIO (Equation 2)
	BWcoIO   float64
	BWrbIO   float64
	Analytic float64 `col:"Eq(7) analytic" fmt:"%.0fx"` // Equation 7
}

// Speedup measures Equations (2)-(7) at the given processor count.
func Speedup(o Options, np int) (*SpeedupResult, error) {
	co, err := runCheckpoint(o, Job{NP: np, Strategy: ckpt.CoIO{NumFiles: np / 64, Hints: mpiio.DefaultHints()}})
	if err != nil {
		return nil, err
	}
	rb, err := runCheckpoint(o, Job{NP: np, Strategy: DefaultRbIOWithGroup(64)})
	if err != nil {
		return nil, err
	}
	sum := func(perRank []nekcem.RankCkpt) float64 {
		var t float64
		for _, pr := range perRank {
			t += pr.Blocked
		}
		return t
	}
	res := &SpeedupResult{
		NP:     np,
		TcoIO:  sum(co.PerRank),
		TrbIO:  sum(rb.PerRank),
		BWcoIO: co.Agg.Bandwidth(),
		BWrbIO: rb.Agg.Bandwidth(),
	}
	res.Measured = res.TcoIO / res.TrbIO
	ng := float64(np) / 64
	res.Analytic = (float64(np) / ng) * (res.BWrbIO / res.BWcoIO)
	return res, nil
}

// MeshReadRow is one global-mesh-read (presetup) measurement, per Section
// III-B: 7.5 s for E=136K on 32,768 ranks, 28 s for E=546K on 131,072.
type MeshReadRow struct {
	E       int     `col:"E (elements)"`
	NP      int     `col:"np"`
	Seconds float64 `col:"presetup (s)" fmt:"%.1f"`
}

// MeshRead measures the presetup (global *.rea/*.map read, parse, and
// distribution) time at the paper's two configurations.
func MeshRead(o Options, cases ...MeshReadRow) ([]MeshReadRow, error) {
	if len(cases) == 0 {
		cases = []MeshReadRow{
			{E: 136 * 1024, NP: 32768},
			{E: 546 * 1024, NP: 131072},
		}
	}
	out := make([]MeshReadRow, 0, len(cases))
	for _, c := range cases {
		_, res, err := simulate(o, scenario{NP: c.NP, Stream: streamSeed}, nekcem.RunConfig{
			Mesh:      nekcem.Mesh{E: c.E, N: 15},
			Dir:       "in",
			Steps:     0,
			Synthetic: true,
			Compute:   nekcem.DefaultComputeModel(),
		}, fmt.Sprintf("meshread/E=%d", c.E))
		if err != nil {
			return nil, err
		}
		out = append(out, MeshReadRow{E: c.E, NP: c.NP, Seconds: res.Presetup})
	}
	return out, nil
}
