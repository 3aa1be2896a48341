package main

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/fsys"
)

// size is the scale a workload runs at. Smoke sizes keep the test suite fast;
// they exercise the same code paths at np 64-1024.
type size struct {
	np           int
	work, epochs int // recovery lifecycle budget; unused elsewhere
}

// workload is one set of inputs the benchmark runs. The program receives only
// the exp.Options built from the seed; run renders the tables whose bytes
// the output check compares, and returns the counts it can read off the
// result rows.
type workload struct {
	name        string
	full, smoke size
	fs          fsys.Backend // backend and shard count of the set-up probe
	shards      int
	run         func(o exp.Options, sz size) (out string, counts map[string]float64, err error)
}

// Sizes are chosen so one repetition takes 1-4 s on a 2-core host: a
// 20 s run then holds enough repetitions for a stable median.
var workloads = []workload{
	{
		// The paper's headline: five arms, gpfs with noise, serial kernel.
		// Host time sits in mpi/mpiio (the coIO two-phase arms) and in the
		// gpfs commit chain; sharding, bbuf and recover are idle.
		name: "fig5-4k", full: size{np: 4096}, smoke: size{np: 512}, fs: "gpfs",
		run: runFig5,
	},
	{
		// rbIO nf=ng on the partitioned kernel: rank spawn and memory
		// dominate, MPI collectives are light.
		name: "rbio-16k-sharded", full: size{np: 16384}, smoke: size{np: 1024}, fs: "gpfs", shards: 2,
		run: runRbIO,
	},
	{
		// Reads beside writes: manifest scans, restore reads, fault
		// injection and a fresh world per segment, at small np.
		name: "recovery-256", full: size{np: 256, work: 120, epochs: 12}, smoke: size{np: 64, work: 16, epochs: 4}, fs: "gpfs",
		run: runRecovery,
	},
	{
		// The only workload on bbuf and pvfs: fleet placement, fifo and
		// deadline drains, async flush and a faulted arm.
		name: "bbfleet-2k", full: size{np: 2048}, smoke: size{np: 256}, fs: "bbuf",
		run: runBBFleet,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

func (w workload) size(smoke bool) size {
	if smoke {
		return w.smoke
	}
	return w.full
}

func runFig5(o exp.Options, sz size) (string, map[string]float64, error) {
	return headline(o, sz.np)
}

func runRbIO(o exp.Options, sz size) (string, map[string]float64, error) {
	return headline(o, sz.np, 4) // approach 4: rbIO np:ng=64:1, nf=ng
}

// headline runs the Figure 5 arms through exp.RunAll and renders exp's
// Figure 5 table from the runs.
func headline(o exp.Options, np int, approaches ...int) (string, map[string]float64, error) {
	o.NPs = []int{np}
	runs, err := exp.RunAll(o, approaches...)
	if err != nil {
		return "", nil, err
	}
	if len(approaches) == 0 {
		approaches = []int{0, 1, 2, 3, 4}
	}
	rows := make([]exp.HeadlineRow, len(runs))
	for i, r := range runs {
		rows[i] = exp.HeadlineRow{
			NP:       r.NP,
			Approach: exp.ApproachLabels[approaches[i%len(approaches)]],
			S:        r.S,
			GBps:     exp.GB(r.Agg.Bandwidth()),
		}
	}
	return exp.Fig5Table(rows), map[string]float64{"exp.runs": float64(len(runs))}, nil
}

func runRecovery(o exp.Options, sz size) (string, map[string]float64, error) {
	rows, err := exp.RecoveryStudy(o, sz.np, 6, sz.work, sz.epochs)
	if err != nil {
		return "", nil, err
	}
	c := map[string]float64{"exp.runs": float64(len(rows))}
	for _, r := range rows {
		c["recover.segments"] += float64(r.Segments)
		c["recover.rollbacks"] += float64(r.Rollbacks)
		c["recover.torn"] += float64(r.Torn)
		c["recover.rework_steps"] += float64(r.Rework)
		c["recover.kills"] += float64(r.Kills.MidEpochTorn + r.Kills.MidEpochSealed + r.Kills.Idle)
	}
	return exp.RecoveryTable(rows), c, nil
}

func runBBFleet(o exp.Options, sz size) (string, map[string]float64, error) {
	res, err := exp.BBSize(o, sz.np, 6)
	if err != nil {
		return "", nil, err
	}
	c := map[string]float64{"exp.runs": float64(len(res.Rows) + len(res.Faulted))}
	for _, r := range res.Rows {
		c["bbuf.spill_bytes"] += float64(r.SpillBytes)
		if b := float64(r.PeakBacklog); b > c["bbuf.peak_backlog_bytes"] {
			c["bbuf.peak_backlog_bytes"] = b
		}
	}
	for _, r := range res.Faulted {
		c["bbuf.spill_bytes"] += float64(r.SpillBytes)
		c["bbuf.lost_bytes"] += float64(r.LostBytes)
	}
	return res.Table() + res.FaultTable(), c, nil
}
