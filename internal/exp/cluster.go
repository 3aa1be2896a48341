package exp

import (
	"fmt"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Tenant specifies one job of a multi-tenant session.
type Tenant struct {
	Name     string
	NP       int           // ranks; must be a multiple of the machine's ranks-per-node
	Strategy ckpt.Strategy // checkpoint strategy
	Arrival  float64       // simulated arrival time

	Steps int // solver steps (0: one step); each step checkpoints

	// Dir is the tenant's checkpoint directory; "" derives "ckpt/<Name>" so
	// concurrent tenants never collide on paths (Create fails on existing
	// files).
	Dir string

	// RestartStep > 0 restores from that checkpoint instead of writing
	// (Steps may then be 0 for a pure restart read).
	RestartStep int64

	// DrainPriority ranks this tenant's burst-buffer drains when the shared
	// fleet runs the "tenant" scheduler (higher drains first; ties break by
	// submission order). Ignored on non-bbuf backends and other policies.
	DrainPriority int

	// Epochs, when set, receives the tenant's two-phase epoch commit
	// records (pure bookkeeping — recording never charges simulated time).
	Epochs ckpt.EpochSink
}

// runConfig is the tenant's NekCEM run, starting at startAt.
func (t Tenant) runConfig(startAt float64, onComplete func(float64)) nekcem.RunConfig {
	steps := t.Steps
	if steps == 0 && t.RestartStep == 0 {
		steps = 1
	}
	cfg := nekcem.PaperRun(t.NP, t.Strategy, steps, 1)
	cfg.Dir = t.Dir
	if cfg.Dir == "" {
		cfg.Dir = "ckpt/" + t.Name
	}
	cfg.RestartStep, cfg.StartAt, cfg.OnComplete, cfg.Epochs = t.RestartStep, startAt, onComplete, t.Epochs
	return cfg
}

// TenantJob is one admitted tenant: its allocation and (after the kernel
// ran and collect was called) its result.
type TenantJob struct {
	Tenant Tenant
	Alloc  *machine.Alloc

	// Admitted is when the job was placed (== Arrival under static
	// admission; >= Arrival when it queued for capacity).
	Admitted float64

	Res *nekcem.RunResult

	pe *nekcem.Pending
}

// clusterSession hosts many concurrent tenant jobs on one built scenario
// sized to hold them. Each tenant gets a disjoint pset-aligned node
// allocation, an mpi.World scoped to its global rank range, and its own
// NekCEM run; all tenants share the kernel, the interconnect, and the file
// servers and ION Ethernet core, so shared-storage slowdown emerges from
// colliding I/O instead of the seeded noise model. Allocations follow
// Options.Map, and the "random" policy draws from the options' seed.
//
// Two admission modes cover the experiment space:
//
//   - launch (static): every tenant's allocation is carved up front and its
//     ranks are spawned before the kernel runs, sleeping until the tenant's
//     arrival time. All allocations coexist, so peak demand must fit the
//     machine; in exchange the mode works on the sharded kernel and is
//     byte-identical across shard counts.
//   - launchQueued (dynamic): a per-tenant admission process sleeps until
//     arrival, queues until a large-enough span is free, then places and
//     starts the job; a finished job's OnComplete hook retires its
//     allocation and wakes the queue. Admission order is deterministic
//     (arrival time, then spec order). The scenario must be Queued, which
//     keeps the serial kernel: admission mutates shared allocator state in
//     simulation time.
//
// When the tenant list collapses to one job filling the machine, the
// composition is byte-identical to a single-tenant runCheckpoint; the nt=1
// goldens pin it.
type clusterSession struct {
	*env
	alloc   *machine.Allocator
	waiters []*sim.Proc // admission processes queued for capacity
}

// clusterCapacity sizes the shared machine for a tenant set: each tenant's
// node demand rounds up to whole psets (allocations are pset-aligned), the
// spans sum, and the total rounds up to the next power of two (the machine
// contract). A single tenant whose np is already pset-aligned and a power of
// two gets a machine of exactly np ranks — the single-tenant composition.
func clusterCapacity(o Options, tenants []Tenant) (int, error) {
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
	return &clusterSession{env: e, alloc: machine.NewAllocator(e.M)}, nil
}

// launch admits every tenant up front (static admission) and spawns its
// ranks, each sleeping until its arrival time. Fails if the tenants'
// combined allocations exceed the machine. Static admission fixes every
// rank and pset window up front, so launch then installs per-tenant trace
// attribution and hands the windows and drain priorities to a burst-buffer
// backend, whose "tenant" scheduler ranks backlogged drains by owner. The
// caller then calls collect.
func (cs *clusterSession) launch(tenants []Tenant) ([]*TenantJob, error) {
	jobs := make([]*TenantJob, len(tenants))
	ranges := make([]trace.TenantRange, len(tenants))
	for i, t := range tenants {
		a, err := cs.alloc.Alloc(t.Name, t.NP, cs.o.Map, cs.o.seed())
		if err != nil {
			return nil, fmt.Errorf("cluster: admit %q: %w", t.Name, err)
		}
		if jobs[i], err = cs.launchOn(a, t); err != nil {
			return nil, err
		}
		lo, hi := a.Psets()
		ranges[i] = trace.TenantRange{RankLo: a.BaseRank(), RankHi: a.BaseRank() + a.Ranks(), PsetLo: lo, PsetHi: hi}
	}
	cs.Rec.SetTenants(ranges)
	if b, ok := cs.FS.(*bbuf.FileSystem); ok {
		b.SetTenantOf(func(rank int) int {
			for i, r := range ranges {
				if rank >= r.RankLo && rank < r.RankHi {
					return i
				}
			}
			return 0
		})
		for i, t := range tenants {
			b.SetTenantPriority(i, t.DrainPriority)
		}
	}
	return jobs, nil
}

// launchOn spawns a tenant run on an existing allocation without touching
// the allocator — restart phases reuse a tenant's slice so the re-read runs
// on the very nodes that wrote the checkpoint.
func (cs *clusterSession) launchOn(a *machine.Alloc, t Tenant) (*TenantJob, error) {
	pe, err := nekcem.Launch(mpi.NewWorldOn(cs.M, a, mpi.DefaultConfig()), cs.RunFS, t.runConfig(t.Arrival, nil))
	if err != nil {
		return nil, fmt.Errorf("cluster: launch %q: %w", t.Name, err)
	}
	return &TenantJob{Tenant: t, Alloc: a, Admitted: t.Arrival, pe: pe}, nil
}

// CapacityError reports a tenant that could never be admitted: it asks for
// more ranks than the whole machine has.
type CapacityError struct {
	Tenant   string
	NP       int
	Capacity int // machine size in ranks
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("cluster: tenant %q needs np=%d but the machine has only %d ranks", e.Tenant, e.NP, e.Capacity)
}

// CheckCapacity returns a *CapacityError for the first tenant that asks for
// more than ranks, the machine's size.
func CheckCapacity(tenants []Tenant, ranks int) error {
	for _, t := range tenants {
		if t.NP > ranks {
			return &CapacityError{Tenant: t.Name, NP: t.NP, Capacity: ranks}
		}
	}
	return nil
}

// launchQueued spawns one admission process per tenant (dynamic
// scheduling): sleep to arrival, queue until capacity frees, place, run,
// and retire the allocation on completion. The returned jobs fill in
// Alloc and Admitted as the simulation admits them; collect reads them
// after the kernel ran. A tenant larger than the machine fails the launch
// with a *CapacityError before anything spawns, instead of queueing
// forever.
func (cs *clusterSession) launchQueued(tenants []Tenant) ([]*TenantJob, error) {
	if err := CheckCapacity(tenants, cs.M.Cfg.Ranks); err != nil {
		return nil, err
	}
	jobs := make([]*TenantJob, len(tenants))
	for i, t := range tenants {
		j := &TenantJob{Tenant: t}
		jobs[i] = j
		cs.K.Go("admit."+t.Name, func(p *sim.Proc) {
			p.SleepUntil(t.Arrival)
			a, err := cs.alloc.Alloc(t.Name, t.NP, cs.o.Map, cs.o.seed())
			for err != nil {
				// No span fits: park until some job retires. FIFO within one
				// retirement, but a later small job may overtake a queued
				// large one (backfill) — deterministically so.
				cs.waiters = append(cs.waiters, p)
				p.Park()
				a, err = cs.alloc.Alloc(t.Name, t.NP, cs.o.Map, cs.o.seed())
			}
			j.Alloc, j.Admitted = a, p.Now()
			j.pe, err = nekcem.Launch(mpi.NewWorldOn(cs.M, a, mpi.DefaultConfig()), cs.RunFS, t.runConfig(0, func(float64) {
				// Retire the allocation and wake every queued admission,
				// in queue order; each retries at the current instant.
				cs.alloc.Free(a)
				ws := cs.waiters
				cs.waiters = nil
				for _, w := range ws {
					w.Unpark()
				}
			}))
			if err != nil {
				panic(fmt.Sprintf("cluster: launch %q: %v", t.Name, err))
			}
		})
	}
	return jobs, nil
}

// collect drives the kernel to completion and finalizes every job.
func (cs *clusterSession) collect(jobs []*TenantJob) error {
	runErr := cs.K.Run()
	for _, j := range jobs {
		if j.pe == nil {
			return fmt.Errorf("cluster: job %q was never admitted (deadlocked queue?)", j.Tenant.Name)
		}
		res, err := j.pe.Finish(runErr)
		if err != nil {
			return fmt.Errorf("cluster: job %q: %w", j.Tenant.Name, err)
		}
		j.Res = res
		j.pe = nil
	}
	return nil
}

// runStatic admits every tenant up front on a fresh session over a machine
// of capRanks ranks, runs them to completion and finishes the trace under
// label.
func runStatic(o Options, capRanks int, tenants []Tenant, label string) ([]*TenantJob, *trace.Recorder, error) {
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
func stormTenants(np, nt int, strat ckpt.Strategy) []Tenant {
	ts := make([]Tenant, nt)
	for i := range ts {
		ts[i] = Tenant{
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

	arm := func(sname, label string, tenants []Tenant) ([]*TenantJob, *trace.Recorder, error) {
		return runStatic(o, capRanks, tenants, "ckptstorm/"+sname+"/"+label)
	}

	for _, strat := range stormStrategies(np) {
		all := stormTenants(np, nt, strat)
		sname := strat.Name()
		sum := CkptStormSummary{Strategy: sname}
		addRows := func(label string, jobs []*TenantJob, rec *trace.Recorder) float64 {
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
			staggered := make([]Tenant, nt)
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
	restartOf := func(t Tenant, at float64, step int64) Tenant {
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
		rj, err := cs.launchOn(j.Alloc, restartOf(tenants[i], cs.K.Now()+1, picks[i]))
		if err != nil {
			return nil, err
		}
		if err := cs.collect([]*TenantJob{rj}); err != nil {
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
	storm := make([]*TenantJob, nt)
	for i, j := range jobs {
		if storm[i], err = cs.launchOn(j.Alloc, restartOf(tenants[i], stormAt, picks[i])); err != nil {
			return nil, err
		}
	}
	if err := cs.collect(storm); err != nil {
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
	Jobs     []*TenantJob
	Makespan float64
}

// RunWorkload generates the workload's tenants and runs them under dynamic
// admission on a machine deliberately smaller than the aggregate demand
// (twice the largest job, so arrivals genuinely queue). A single -np value
// in the options overrides the capacity.
func RunWorkload(o Options, wk Workload) (*WorkloadResult, error) {
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
		if capRanks, err = clusterCapacity(o, []Tenant{largest}); err != nil {
			return nil, err
		}
		capRanks = nextPow2(2 * capRanks)
	}
	cs, err := newClusterSession(o, scenario{NP: capRanks, Queued: true})
	if err != nil {
		return nil, err
	}
	jobs, err := cs.launchQueued(tenants)
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
