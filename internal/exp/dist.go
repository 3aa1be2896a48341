package exp

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/iolog"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/table"
)

// Plot renders the per-rank scatter as ASCII, the textual analogue of the
// paper's figures.
func (d *Distribution) Plot() string {
	return iolog.Scatter(d.Times, 96, 16)
}

// Distribution summarizes a per-rank I/O time scatter (Figures 9-11). The
// paper plots one point per rank; the summary carries the full vector plus
// the quantiles a reader compares against the plots.
type Distribution struct {
	Label  string
	NP     int
	Times  []float64 // per-rank blocked seconds, by world rank
	ByRole map[ckpt.Role][]float64
	Min    float64
	Median float64
	P95    float64
	Max    float64
	Spread float64 // max/median — the paper's "high variance" signature
}

func summarize(label string, np int, perRank []nekcem.RankCkpt) *Distribution {
	d := &Distribution{
		Label:  label,
		NP:     np,
		Times:  make([]float64, len(perRank)),
		ByRole: make(map[ckpt.Role][]float64),
	}
	for i, pr := range perRank {
		d.Times[i] = pr.Blocked
		d.ByRole[pr.Role] = append(d.ByRole[pr.Role], pr.Blocked)
	}
	sorted := append([]float64(nil), d.Times...)
	sort.Float64s(sorted)
	d.Min = sorted[0]
	d.Median = sorted[len(sorted)/2]
	d.P95 = sorted[int(0.95*float64(len(sorted)-1))]
	d.Max = sorted[len(sorted)-1]
	if d.Median > 0 {
		d.Spread = d.Max / d.Median
	}
	return d
}

// Table renders the distribution summary.
func (d *Distribution) Table() string {
	rows := [][]string{{
		d.Label, fmt.Sprint(d.NP),
		fmt.Sprintf("%.2f", d.Min),
		fmt.Sprintf("%.2f", d.Median),
		fmt.Sprintf("%.2f", d.P95),
		fmt.Sprintf("%.2f", d.Max),
		fmt.Sprintf("%.1fx", d.Spread),
	}}
	for _, role := range []ckpt.Role{ckpt.RoleWorker, ckpt.RoleWriter} {
		ts := d.ByRole[role]
		if len(ts) == 0 {
			continue
		}
		sorted := append([]float64(nil), ts...)
		sort.Float64s(sorted)
		rows = append(rows, []string{
			d.Label + " [" + role.String() + "s]", fmt.Sprint(len(ts)),
			fmt.Sprintf("%.4f", sorted[0]),
			fmt.Sprintf("%.4f", sorted[len(sorted)/2]),
			fmt.Sprintf("%.4f", sorted[int(0.95*float64(len(sorted)-1))]),
			fmt.Sprintf("%.4f", sorted[len(sorted)-1]),
			"",
		})
	}
	return table.Text([]string{"experiment", "ranks", "min (s)", "median (s)", "p95 (s)", "max (s)", "max/med"}, rows)
}

// Fig9 reproduces the 1PFPP per-rank I/O time distribution at 16K ranks:
// some ranks finish in seconds, others take hundreds (metadata queueing).
func Fig9(o Options) (*Distribution, error) {
	np := o.npOr(16384)
	r, err := runCheckpoint(o, Job{NP: np, Strategy: ckpt.OnePFPP{}})
	if err != nil {
		return nil, err
	}
	return summarize("Fig9 1PFPP", np, r.PerRank), nil
}

// Fig10 reproduces the coIO (64:1) distribution at 64K ranks: most ranks
// synchronized around the mean, with heavy-tail outliers that stall the
// whole collective.
func Fig10(o Options) (*Distribution, error) {
	np := o.npOr(65536)
	r, err := runCheckpoint(o, Job{NP: np, Strategy: ckpt.CoIO{NumFiles: np / 64, Hints: mpiio.DefaultHints()}})
	if err != nil {
		return nil, err
	}
	return summarize("Fig10 coIO 64:1", np, r.PerRank), nil
}

// Fig11 reproduces the rbIO distribution at 64K ranks: two bands — workers
// finishing in microseconds and a flat line of writers.
func Fig11(o Options) (*Distribution, error) {
	np := o.npOr(65536)
	r, err := runCheckpoint(o, Job{NP: np, Strategy: DefaultRbIOWithGroup(64)})
	if err != nil {
		return nil, err
	}
	return summarize("Fig11 rbIO 64:1 nf=ng", np, r.PerRank), nil
}

// Fig12Row is one timeline bin of the write-activity comparison.
type Fig12Row struct {
	T           float64 `col:"t (s)" fmt:"%.1f"`
	RbIOWriters int     `col:"rbIO writers"`
	RbIOMBps    float64 `col:"rbIO MB/s" fmt:"%.0f"`
	CoIOWriters int     `col:"coIO writers"`
	CoIOMBps    float64 `col:"coIO MB/s" fmt:"%.0f"`
}

// Fig12 reproduces the Darshan-style write-activity analysis at 32K ranks:
// rbIO's independent writers against coIO's collective aggregators.
func Fig12(o Options) ([]Fig12Row, error) {
	np := o.npOr(32768)
	const dt = 0.5
	rb, err := runCheckpoint(o, Job{NP: np, Strategy: DefaultRbIOWithGroup(64), WithLog: true})
	if err != nil {
		return nil, err
	}
	co, err := runCheckpoint(o, Job{NP: np, Strategy: ckpt.CoIO{NumFiles: np / 64, Hints: mpiio.DefaultHints()}, WithLog: true})
	if err != nil {
		return nil, err
	}
	rbAct, err := rb.Log.Activity(dt, iolog.OpWrite)
	if err != nil {
		return nil, err
	}
	coAct, err := co.Log.Activity(dt, iolog.OpWrite)
	if err != nil {
		return nil, err
	}
	n := len(rbAct)
	if len(coAct) > n {
		n = len(coAct)
	}
	rows := make([]Fig12Row, n)
	for i := range rows {
		rows[i].T = float64(i) * dt
		if i < len(rbAct) {
			rows[i].RbIOWriters = rbAct[i].Writers
			rows[i].RbIOMBps = float64(rbAct[i].Bytes) / dt / 1e6
		}
		if i < len(coAct) {
			rows[i].CoIOWriters = coAct[i].Writers
			rows[i].CoIOMBps = float64(coAct[i].Bytes) / dt / 1e6
		}
	}
	return rows, nil
}
