package exp

import (
	"fmt"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/trace"
)

// clusterSession is one multi-tenant run: a built scenario sized to host
// every tenant at once, plus the cluster scheduler. When the tenant list
// collapses to one job filling the machine, the composition is
// byte-identical to a single-tenant runCheckpoint — the nt=1 goldens pin
// it.
type clusterSession struct {
	*env
	Sess *cluster.Session
}

// clusterCapacity sizes the shared machine for a tenant set: each tenant's
// node demand rounds up to whole psets (allocations are pset-aligned), the
// spans sum, and the total rounds up to the next power of two (the machine
// contract). A single tenant whose np is already pset-aligned and a power of
// two gets a machine of exactly np ranks — the single-tenant composition.
func clusterCapacity(o Options, tenants []cluster.Tenant) (int, error) {
	d, err := machine.Lookup(o.Machine)
	if err != nil {
		return 0, err
	}
	if len(tenants) == 0 {
		return 0, fmt.Errorf("exp: cluster needs at least one tenant")
	}
	geo := d.Config(0) // geometry fields are np-independent
	rpn, npp := geo.RanksPerNode, geo.NodesPerPset
	total := 0
	for _, t := range tenants {
		if t.NP <= 0 || t.NP%rpn != 0 {
			return 0, fmt.Errorf("exp: tenant %q np=%d is not a positive multiple of ranks-per-node %d", t.Name, t.NP, rpn)
		}
		nodes := t.NP / rpn
		span := (nodes + npp - 1) / npp * npp
		total += span
	}
	return nextPow2(total) * rpn, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newClusterSession builds the shared kernel+machine+backend for a tenant
// set on a machine of sc.NP ranks. Cluster sessions always carry a
// recorder — a metrics-only one when tracing is off — because per-tenant
// attribution rides the span stream; recording never perturbs simulated
// time. The machine RNG derives from the capacity in place of np, so a
// machine of the same size gets the same noise, whoever runs on it.
func newClusterSession(o Options, sc scenario) (*clusterSession, error) {
	sc.Metrics = true
	e, err := build(o, sc)
	if err != nil {
		return nil, err
	}
	return &clusterSession{env: e, Sess: cluster.NewSession(e.M, e.RunFS)}, nil
}

// tenantDefaults threads the session-level placement knobs into tenants
// that did not pin their own, mirroring scenario.machineConfig's override order.
func (cs *clusterSession) tenantDefaults(tenants []cluster.Tenant) []cluster.Tenant {
	out := make([]cluster.Tenant, len(tenants))
	for i, t := range tenants {
		if t.Placement == "" {
			t.Placement = cs.o.Map
		}
		if t.PlacementSeed == 0 {
			t.PlacementSeed = cs.o.seed()
		}
		out[i] = t
	}
	return out
}

// launch admits tenants statically and installs per-tenant trace
// attribution (static admission fixes every rank/pset window up front).
func (cs *clusterSession) launch(tenants []cluster.Tenant) ([]*cluster.Job, error) {
	jobs, err := cs.Sess.Launch(cs.tenantDefaults(tenants))
	if err != nil {
		return nil, err
	}
	cs.Rec.SetTenants(cluster.TenantRanges(jobs))
	cs.wireDrainTenants(jobs)
	return jobs, nil
}

// wireDrainTenants hands the admitted rank windows and per-tenant drain
// priorities to a burst-buffer backend, so the fleet's "tenant" scheduler
// can rank backlogged drains by owner. A no-op on every other backend.
func (cs *clusterSession) wireDrainTenants(jobs []*cluster.Job) {
	b, ok := cs.FS.(*bbuf.FileSystem)
	if !ok {
		return
	}
	ranges := cluster.TenantRanges(jobs)
	b.SetTenantOf(func(rank int) int {
		for i, r := range ranges {
			if rank >= r.RankLo && rank < r.RankHi {
				return i
			}
		}
		return 0
	})
	for i, j := range jobs {
		b.SetTenantPriority(i, j.Tenant.DrainPriority)
	}
}

// collect drives the kernel to completion and finalizes the jobs.
func (cs *clusterSession) collect(jobs []*cluster.Job) error {
	return cluster.Collect(jobs, cs.K.Run())
}

// runStatic admits every tenant up front on a fresh session over a machine
// of capRanks ranks, runs them to completion and finishes the trace under
// label.
func runStatic(o Options, capRanks int, tenants []cluster.Tenant, label string) ([]*cluster.Job, *trace.Recorder, error) {
	cs, err := newClusterSession(o, scenario{NP: capRanks})
	if err != nil {
		return nil, nil, err
	}
	jobs, err := cs.launch(tenants)
	if err != nil {
		return nil, nil, err
	}
	if err := cs.collect(jobs); err != nil {
		return nil, nil, err
	}
	cs.finish(label)
	return jobs, cs.Rec, nil
}

// stormTenants builds nt identical tenants of np ranks each. Drain
// priorities descend with the index (t0 highest), so a bbuf-backed storm
// under -drain tenant has a strict drain order to exercise.
func stormTenants(np, nt int, strat ckpt.Strategy) []cluster.Tenant {
	ts := make([]cluster.Tenant, nt)
	for i := range ts {
		ts[i] = cluster.Tenant{
			Name:          fmt.Sprintf("t%d", i),
			NP:            np,
			Strategy:      strat,
			DrainPriority: nt - i,
		}
	}
	return ts
}

// stormStrategies are the storm's strategy arms: the paper's three headline
// families, from the approach that hammers shared storage hardest (one file
// per process) to the one designed to decouple from it (rbIO).
func stormStrategies(np int) []ckpt.Strategy {
	return strategiesByName(np, "1pfpp", "coio1", "rbio")
}

// CkptStormRow is one tenant's measurement in one arm of the storm.
type CkptStormRow struct {
	Strategy    string  `col:"strategy"`
	Arm         string  `col:"arm"` // "alone", "staggered", "colliding"
	Tenant      string  `col:"tenant"`
	StepSec     float64 `col:"step (s)" fmt:"%.3f"`
	GBps        float64 `col:"BW (GB/s)" fmt:"%.2f"`
	Penalty     float64 `col:"vs alone" fmt:"%.2fx"`        // StepSec over the strategy's alone-arm StepSec
	StorageBusy float64 `col:"storage busy (s)" fmt:"%.2f"` // storage-layer span seconds attributed to the tenant
	FabricBusy  float64 `col:"fabric busy (s)" fmt:"%.2f"`  // fabric-layer span seconds attributed to the tenant
}

// CkptStormSummary condenses one strategy's interference outcome.
type CkptStormSummary struct {
	Strategy         string  `col:"strategy"`
	AloneSec         float64 `col:"alone step (s)" fmt:"%.3f"` // baseline step time, one tenant on the idle machine
	StaggeredPenalty float64 `col:"staggered" fmt:"%.2fx"`     // worst tenant's staggered-arm slowdown
	CollidingPenalty float64 `col:"colliding" fmt:"%.2fx"`     // worst tenant's colliding-arm slowdown
}

// CkptStormResult is the endogenous-interference experiment: nt identical
// tenants checkpoint on one machine, either colliding (all at once) or
// staggered (spaced past each other), against a baseline tenant running
// alone on the same hardware — once per strategy family. The paper models
// other users as seeded noise; here the interference is endogenous, and the
// strategy sweep shows who suffers: 1PFPP collapses when tenants collide on
// the shared metadata and server paths, while rbIO's aggregation keeps each
// tenant pinned to its own ION pipe and barely notices the neighbors.
type CkptStormResult struct {
	NP, Tenants int
	Capacity    int
	Rows        []CkptStormRow
	Summaries   []CkptStormSummary
}

// WorstColliding returns the largest colliding-arm penalty across the
// strategy sweep — the headline interference number.
func (r *CkptStormResult) WorstColliding() CkptStormSummary {
	worst := CkptStormSummary{}
	for _, s := range r.Summaries {
		if s.CollidingPenalty > worst.CollidingPenalty {
			worst = s
		}
	}
	return worst
}

// CkptStorm runs alone/staggered/colliding arms for each strategy family.
// Every arm builds a fresh session over a machine sized for all nt tenants,
// so the hardware — psets, ION links, file servers — is held fixed while
// only the checkpoint timing varies: any slowdown is endogenous contention,
// not a smaller machine.
func CkptStorm(o Options, np, nt int) (*CkptStormResult, error) {
	if nt < 1 {
		return nil, fmt.Errorf("exp: ckptstorm needs at least 1 tenant, got %d", nt)
	}
	capRanks, err := clusterCapacity(o, stormTenants(np, nt, nil))
	if err != nil {
		return nil, err
	}
	res := &CkptStormResult{NP: np, Tenants: nt, Capacity: capRanks}

	arm := func(sname, label string, tenants []cluster.Tenant) ([]*cluster.Job, *trace.Recorder, error) {
		return runStatic(o, capRanks, tenants, "ckptstorm/"+sname+"/"+label)
	}

	for _, strat := range stormStrategies(np) {
		all := stormTenants(np, nt, strat)
		sname := strat.Name()
		sum := CkptStormSummary{Strategy: sname}
		addRows := func(label string, jobs []*cluster.Job, rec *trace.Recorder) float64 {
			worst := 0.0
			for i, j := range jobs {
				agg := j.Res.Checkpoints[0]
				step := agg.StepTime()
				pen := 0.0
				if sum.AloneSec > 0 {
					pen = step / sum.AloneSec
				}
				if pen > worst {
					worst = pen
				}
				res.Rows = append(res.Rows, CkptStormRow{
					Strategy: sname, Arm: label, Tenant: j.Tenant.Name,
					StepSec: step, GBps: GB(agg.Bandwidth()), Penalty: pen,
					StorageBusy: rec.TenantSpanTime(i, trace.LayerStorage),
					FabricBusy:  rec.TenantSpanTime(i, trace.LayerFabric),
				})
			}
			return worst
		}

		// Arm 1 — alone: tenant 0 on the otherwise idle capacity machine.
		jobs, rec, err := arm(sname, "alone", all[:1])
		if err != nil {
			return nil, err
		}
		sum.AloneSec = jobs[0].Res.Checkpoints[0].StepTime()
		addRows("alone", jobs, rec)

		if nt > 1 {
			// Arm 2 — staggered: arrivals spaced past the alone duration,
			// so checkpoints barely overlap on the shared storage.
			gap := 1.25 * (jobs[0].Res.Done - jobs[0].Res.Started)
			staggered := make([]cluster.Tenant, nt)
			for i, t := range all {
				t.Arrival = float64(i) * gap
				staggered[i] = t
			}
			sj, srec, err := arm(sname, "staggered", staggered)
			if err != nil {
				return nil, err
			}
			sum.StaggeredPenalty = addRows("staggered", sj, srec)

			// Arm 3 — colliding: everyone checkpoints at t=0.
			cj, crec, err := arm(sname, "colliding", all)
			if err != nil {
				return nil, err
			}
			sum.CollidingPenalty = addRows("colliding", cj, crec)
		}
		res.Summaries = append(res.Summaries, sum)
	}
	return res, nil
}

// RestartStormRow is one tenant's solo-vs-storm restart read.
type RestartStormRow struct {
	Tenant   string  `col:"tenant"`
	ScanSec  float64 `col:"scan (s)" fmt:"%.4f"`       // manifest scan-and-verify before the solo read
	Torn     int     `col:"torn"`                      // torn epochs the tenant's scan detected
	SoloSec  float64 `col:"solo read (s)" fmt:"%.3f"`  // re-read duration with the machine otherwise idle
	StormSec float64 `col:"storm read (s)" fmt:"%.3f"` // re-read duration with every tenant reading at once
	Penalty  float64 `col:"penalty" fmt:"%.2fx"`
}

// RestartStormResult measures recovery after a system-wide outage: all
// tenants checkpoint, every file server fails and restores (internal/fault),
// and then every tenant re-reads its checkpoint at the same instant — the
// restart storm that follows a real machine-wide outage.
type RestartStormResult struct {
	NP, Tenants  int
	Rows         []RestartStormRow
	StormPenalty float64      // worst tenant's storm/solo slowdown
	FaultCounts  fault.Counts // injector events that fired
	Torn         int          // torn epochs across every tenant's scan
	ScanBytes    int64        // manifest bytes read back across the scans
}

// stormOutage is how long, in seconds, RestartStorm keeps the servers down.
const stormOutage float64 = 60

// RestartStorm runs the outage scenario on one kernel across four phases:
// write, outage, solo-read baselines, storm. Fault injection mutates shared
// storage state, so the whole scenario runs on the serial kernel — same rule
// as every faulted job.
func RestartStorm(o Options, np, nt int) (*RestartStormResult, error) {
	if nt < 1 {
		return nil, fmt.Errorf("exp: restartstorm needs at least 1 tenant, got %d", nt)
	}
	tenants := stormTenants(np, nt, ckpt.MustNew("rbio", np))
	// Each tenant records its epochs in its own manifest log; restarts go
	// through it (scan, verify, pick) instead of assuming step 1 survived.
	logs := make([]*recover.Log, nt)
	for i := range tenants {
		logs[i] = recover.NewLog(o.seed(), tenants[i].NP)
		tenants[i].Epochs = logs[i].StartSegment("ckpt/"+tenants[i].Name, 0, 0)
	}
	capRanks, err := clusterCapacity(o, tenants)
	if err != nil {
		return nil, err
	}
	cs, err := newClusterSession(o, scenario{NP: capRanks, Faulted: true})
	if err != nil {
		return nil, err
	}
	res := &RestartStormResult{NP: np, Tenants: nt}

	// Phase 1 — every tenant writes its checkpoint.
	jobs, err := cs.launch(tenants)
	if err != nil {
		return nil, err
	}
	if err := cs.collect(jobs); err != nil {
		return nil, err
	}
	t1 := cs.K.Now()

	// Phase 2 — system-wide outage: every file server fails one second
	// after the writes drain and restores stormOutage later. The schedule is
	// explicit, so the scenario is exactly reproducible.
	var sched fault.Schedule
	for i := 0; i < numServers(cs.FS); i++ {
		sched = append(sched,
			fault.Event{Time: t1 + 1, Class: fault.Server, Index: i, Kind: fault.Fail},
			fault.Event{Time: t1 + 1 + stormOutage, Class: fault.Server, Index: i, Kind: fault.Restore},
		)
	}
	sched.Sort()
	inj, err := cs.attachFaults(&FaultSpec{Schedule: sched, Seed: o.seed()})
	if err != nil {
		return nil, err
	}
	restoreAt := t1 + 1 + stormOutage

	// Phase 3 — solo baselines: each tenant first scans its manifest log
	// through the shared storage (detecting any epoch the outage tore,
	// picking the newest sealed one), then re-reads that epoch with the
	// machine otherwise idle, sequentially, on its own kernel run. The
	// first run also dispatches the outage events.
	restartOf := func(t cluster.Tenant, at float64, step int64) cluster.Tenant {
		t.Arrival = at
		t.Steps = 0
		t.RestartStep = step
		t.Epochs = nil
		return t
	}
	solo := make([]float64, nt)
	scans := make([]recover.ScanResult, nt)
	picks := make([]int64, nt)
	at := restoreAt + 1
	for i, j := range jobs {
		idx := i
		var scanErr error
		cs.K.Go("restartstorm.scan", func(p *sim.Proc) {
			p.SleepUntil(at)
			scans[idx], scanErr = recover.Scan(p, cs.FS, logs[idx], 0)
		})
		if err := cs.K.Run(); err != nil {
			return nil, err
		}
		if scanErr != nil {
			return nil, scanErr
		}
		pick := scans[i].Pick
		if pick == nil {
			return nil, fmt.Errorf("exp: restartstorm: no sealed epoch survived the outage for %q", j.Tenant.Name)
		}
		picks[i] = pick.LocalStep
		res.Torn += scans[i].Torn
		res.ScanBytes += scans[i].ReadBytes
		rj, err := cs.Sess.LaunchOn(j.Alloc, restartOf(cs.tenantDefaults(tenants)[i], cs.K.Now()+1, picks[i]))
		if err != nil {
			return nil, err
		}
		if err := cluster.Collect([]*cluster.Job{rj}, cs.K.Run()); err != nil {
			return nil, err
		}
		if !rj.Res.Restored {
			return nil, fmt.Errorf("exp: restartstorm solo read of %q did not restore", rj.Tenant.Name)
		}
		solo[i] = rj.Res.Done - rj.Res.Started
		at = cs.K.Now() + 1
	}

	// Phase 4 — the storm: every tenant re-reads its manifest-picked epoch
	// at the same instant on the nodes that wrote its checkpoint.
	stormAt := cs.K.Now() + 1
	storm := make([]*cluster.Job, nt)
	for i, j := range jobs {
		if storm[i], err = cs.Sess.LaunchOn(j.Alloc, restartOf(cs.tenantDefaults(tenants)[i], stormAt, picks[i])); err != nil {
			return nil, err
		}
	}
	if err := cluster.Collect(storm, cs.K.Run()); err != nil {
		return nil, err
	}
	for i, rj := range storm {
		if !rj.Res.Restored {
			return nil, fmt.Errorf("exp: restartstorm storm read of %q did not restore", rj.Tenant.Name)
		}
		dur := rj.Res.Done - rj.Res.Started
		pen := 0.0
		if solo[i] > 0 {
			pen = dur / solo[i]
		}
		if pen > res.StormPenalty {
			res.StormPenalty = pen
		}
		res.Rows = append(res.Rows, RestartStormRow{
			Tenant:  rj.Tenant.Name,
			ScanSec: scans[i].End - scans[i].Start, Torn: scans[i].Torn,
			SoloSec: solo[i], StormSec: dur, Penalty: pen,
		})
	}
	res.FaultCounts = inj.Counts()
	cs.finish("restartstorm")
	return res, nil
}

// WorkloadResult is a queued multi-tenant workload trace: when each job
// arrived, when capacity admitted it, and how long it ran.
type WorkloadResult struct {
	Capacity int
	Jobs     []*cluster.Job
	Makespan float64
}

// RunWorkload generates the workload's tenants and runs them under dynamic
// admission on a machine deliberately smaller than the aggregate demand
// (twice the largest job, so arrivals genuinely queue). A single -np value
// in the options overrides the capacity.
func RunWorkload(o Options, wk cluster.Workload) (*WorkloadResult, error) {
	tenants, err := wk.Tenants()
	if err != nil {
		return nil, err
	}
	capRanks := o.npOr(0)
	if capRanks == 0 {
		largest := tenants[0]
		for _, t := range tenants {
			if t.NP > largest.NP {
				largest = t
			}
		}
		if capRanks, err = clusterCapacity(o, []cluster.Tenant{largest}); err != nil {
			return nil, err
		}
		capRanks = nextPow2(2 * capRanks)
	}
	cs, err := newClusterSession(o, scenario{NP: capRanks, Queued: true})
	if err != nil {
		return nil, err
	}
	jobs, err := cs.Sess.LaunchQueued(cs.tenantDefaults(tenants))
	if err != nil {
		return nil, err
	}
	if err := cs.collect(jobs); err != nil {
		return nil, err
	}
	cs.finish("workload")
	return &WorkloadResult{Capacity: cs.NP, Jobs: jobs, Makespan: cs.K.Now()}, nil
}

// Table renders the admission trace.
func (r *WorkloadResult) Table() string {
	rows := [][]string{}
	for _, j := range r.Jobs {
		rows = append(rows, []string{
			j.Tenant.Name,
			fmt.Sprint(j.Tenant.NP),
			j.Tenant.Strategy.Name(),
			fmt.Sprintf("%.2f", j.Tenant.Arrival),
			fmt.Sprintf("%.2f", j.Admitted),
			fmt.Sprintf("%.2f", j.Admitted-j.Tenant.Arrival),
			fmt.Sprintf("%.2f", j.Res.Done),
		})
	}
	return table.Text([]string{"job", "np", "strategy", "arrival", "admitted", "waited", "done"}, rows)
}
