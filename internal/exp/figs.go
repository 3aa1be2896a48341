package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/machine"
	"repro/internal/table"
)

// HeadlineRow is one (approach, np) measurement shared by Figures 5-7.
type HeadlineRow struct {
	NP       int
	Approach string
	S        int64   // bytes per checkpoint step
	StepSec  float64 // Figure 6: overall time per checkpoint step
	GBps     float64 // Figure 5: write bandwidth
	Ratio    float64 // Figure 7: checkpoint time / computation time per step
}

// Headline runs the paper's five approaches across the weak-scaling points;
// Figures 5, 6 and 7 are different views of these runs. Passing approach
// indices restricts the sweep to those columns of the legend. The runs fan
// out over the Options worker pool; each is an independent simulation, so the
// rows are identical to a serial sweep.
func Headline(o Options, approaches ...int) ([]HeadlineRow, error) {
	if o.Ckpt != "" && len(approaches) == 0 {
		return headlineNamed(o)
	}
	if len(approaches) == 0 {
		approaches = allApproaches
	}
	return sweep(o, headlineJobs(o, approaches), func(i int, r *Run) HeadlineRow {
		return headlineRow(r, ApproachLabels[approaches[i%len(approaches)]])
	})
}

// headlineNamed runs the single Options.Ckpt strategy across the sweep —
// the -ckpt CLI path. Any registered strategy works, including ones
// outside the five-arm headline legend (multilevel, async).
func headlineNamed(o Options) ([]HeadlineRow, error) {
	d, err := ckpt.Lookup(o.Ckpt)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, np := range o.nps() {
		jobs = append(jobs, Job{NP: np, Strategy: d.New(np)})
	}
	return sweep(o, jobs, func(_ int, r *Run) HeadlineRow { return headlineRow(r, d.Label) })
}

func headlineRow(r *Run, label string) HeadlineRow {
	step := r.Agg.StepTime()
	return HeadlineRow{
		NP:       r.NP,
		Approach: label,
		S:        r.S,
		StepSec:  step,
		GBps:     GB(r.Agg.Bandwidth()),
		Ratio:    step / r.Result.ComputeStep,
	}
}

// headlineViews are the Figure 5, 6 and 7 projections of a HeadlineRow:
// the columns each figure adds after np and approach.
var headlineViews = map[int]struct {
	headers []string
	cells   func(r HeadlineRow) []string
}{
	5: {[]string{"S (GB)", "bandwidth (GB/s)"}, func(r HeadlineRow) []string {
		return []string{fmt.Sprintf("%.1f", float64(r.S)/1e9), fmt.Sprintf("%.2f", r.GBps)}
	}},
	6: {[]string{"time per ckpt step (s)"}, func(r HeadlineRow) []string {
		return []string{fmt.Sprintf("%.1f", r.StepSec)}
	}},
	7: {[]string{"T(ckpt)/T(comp)"}, func(r HeadlineRow) []string {
		return []string{fmt.Sprintf("%.0f", r.Ratio)}
	}},
}

// HeadlineTable renders paper Figure fig's view (5, 6 or 7) of the
// headline rows: write bandwidth, time per checkpoint step, or the
// checkpoint/computation ratio.
func HeadlineTable(fig int, rows []HeadlineRow) string {
	v := headlineViews[fig]
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = append([]string{fmt.Sprint(r.NP), r.Approach}, v.cells(r)...)
	}
	return table.Text(append([]string{"np", "approach"}, v.headers...), out)
}

// Fig5Table renders the write-bandwidth view (paper Figure 5).
func Fig5Table(rows []HeadlineRow) string { return HeadlineTable(5, rows) }

// Fig8Row is one point of the rbIO file-count sweep (paper Figure 8).
type Fig8Row struct {
	NP   int     `col:"np"`
	NF   int     `col:"nf (=ng)"` // number of files == number of writer groups
	GBps float64 `col:"bandwidth (GB/s)" fmt:"%.2f"`
}

// Fig8 sweeps rbIO (nf = ng) over nf in {256, 512, 1024, 2048, 4096} at
// each processor count, the paper's tuning experiment. Group sizes smaller
// than 2 (nf == np) are skipped, as in the paper.
func Fig8(o Options) ([]Fig8Row, error) {
	nfs := []int{256, 512, 1024, 2048, 4096}
	var jobs []Job
	var points []Fig8Row
	for _, np := range o.nps() {
		for _, nf := range nfs {
			gs := np / nf
			if gs < 2 {
				continue
			}
			jobs = append(jobs, Job{NP: np, Strategy: DefaultRbIOWithGroup(gs)})
			points = append(points, Fig8Row{NP: np, NF: nf})
		}
	}
	return sweep(o, jobs, func(i int, r *Run) Fig8Row {
		p := points[i]
		p.GBps = GB(r.Agg.Bandwidth())
		return p
	})
}

// TableIRow is one row of the paper's Table I: perceived write performance.
type TableIRow struct {
	NP            int     `col:"# procs"`
	SendCycles    float64 `col:"time (CPU cycles/send)" fmt:"%.0f"` // CPU cycles a worker spends per field Isend
	PerceivedTBps float64 `col:"perceived BW (TB/s)" fmt:"%.0f"`    // perceived bandwidth, TB/s
}

// TableI measures rbIO's perceived write performance: how long the slowest
// worker was occupied handing its data off, expressed in CPU cycles per
// field send and as an aggregate perceived bandwidth.
func TableI(o Options) ([]TableIRow, error) {
	d, err := machine.Lookup(o.Machine)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, np := range o.nps() {
		jobs = append(jobs, Job{NP: np, Strategy: DefaultRbIOWithGroup(64)})
	}
	return sweep(o, jobs, func(_ int, r *Run) TableIRow {
		// MaxPerceived sums the six per-field hand-offs of the slowest
		// worker; the paper reports per-send cycles at Intrepid's 850 MHz,
		// other machines at their own clock.
		perSend := r.Agg.MaxPerceived / 6
		return TableIRow{
			NP:            r.NP,
			SendCycles:    perSend * d.Config(r.NP).CPUHz,
			PerceivedTBps: r.Agg.PerceivedBandwidth() / 1e12,
		}
	})
}

// DefaultRbIOWithGroup returns the paper's rbIO configuration (nf = ng,
// buffered writers) with the given np:ng group size.
func DefaultRbIOWithGroup(gs int) ckpt.Strategy {
	s := ckpt.DefaultRbIO()
	s.GroupSize = gs
	return s
}
