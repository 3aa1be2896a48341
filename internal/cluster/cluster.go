// Package cluster hosts many concurrent tenant jobs on one simulated
// machine. Each tenant gets a disjoint pset-aligned node allocation, an
// mpi.World scoped to its global rank range, and its own NekCEM run; all
// tenants share the kernel, the interconnect, and — crucially — the file
// servers and the ION Ethernet core, so shared-storage slowdown emerges
// endogenously from colliding I/O instead of the seeded noise model.
//
// Two admission modes cover the experiment space:
//
//   - Launch (static): every tenant's allocation is carved up front and its
//     ranks are spawned before the kernel runs, sleeping until the tenant's
//     arrival time. All allocations coexist, so peak demand must fit the
//     machine — in exchange the mode works on the sharded kernel and is
//     byte-identical across shard counts.
//   - LaunchQueued (dynamic): a per-tenant admission process sleeps until
//     arrival, queues until a large-enough span is free, then places and
//     starts the job; a finished job's OnComplete hook retires its
//     allocation and wakes the queue. Admission order is deterministic
//     (arrival time, then spec order). Serial kernel only: admission
//     mutates shared allocator state in simulation time.
package cluster

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Tenant specifies one job of a multi-tenant session.
type Tenant struct {
	Name     string
	NP       int           // ranks; must be a multiple of the machine's ranks-per-node
	Strategy ckpt.Strategy // checkpoint strategy (nil: compute-only job)
	Arrival  float64       // simulated arrival time

	Steps int // solver steps (0: one step); each step checkpoints

	// Dir is the tenant's checkpoint directory; "" derives "ckpt/<Name>" so
	// concurrent tenants never collide on paths (Create fails on existing
	// files).
	Dir string

	// RestartStep > 0 restores from that checkpoint instead of writing
	// (Steps may then be 0 for a pure restart read).
	RestartStep int64

	// Placement names the rank→node policy inside the tenant's slice
	// ("" = txyz); PlacementSeed feeds the "random" policy.
	Placement     string
	PlacementSeed uint64

	// DrainPriority ranks this tenant's burst-buffer drains when the shared
	// fleet runs the "tenant" scheduler (higher drains first; ties break by
	// submission order). Ignored on non-bbuf backends and other policies.
	DrainPriority int

	// Epochs, when set, receives the tenant's two-phase epoch commit
	// records (pure bookkeeping — recording never charges simulated time).
	Epochs ckpt.EpochSink
}

func (t Tenant) dir() string {
	if t.Dir != "" {
		return t.Dir
	}
	return "ckpt/" + t.Name
}

// Job is one admitted tenant: its allocation, world, and (after the kernel
// ran and Collect was called) its result.
type Job struct {
	Tenant Tenant
	Alloc  *machine.Alloc
	World  *mpi.World

	// Admitted is when the job was placed (== Arrival under static
	// admission; >= Arrival when it queued for capacity).
	Admitted float64

	Res *nekcem.RunResult

	pe *nekcem.Pending
}

// Session runs tenants on one shared kernel+machine+filesystem.
type Session struct {
	M     *machine.Machine
	FS    fsys.System // the backend tenants do I/O through
	Alloc *machine.Allocator

	waiters []*sim.Proc // admission processes queued for capacity
}

// NewSession builds a session over a machine and filesystem. fs is what
// tenant ranks call — pass a fsys.Guard-wrapped system when the kernel is
// sharded, exactly as single-tenant runs do.
func NewSession(m *machine.Machine, fs fsys.System) *Session {
	return &Session{M: m, FS: fs, Alloc: machine.NewAllocator(m)}
}

func (s *Session) runConfig(t Tenant, startAt float64, onComplete func(float64)) nekcem.RunConfig {
	steps := t.Steps
	if steps == 0 && t.RestartStep == 0 {
		steps = 1
	}
	cfg := nekcem.PaperRun(t.NP, t.Strategy, steps, 1)
	cfg.Dir, cfg.RestartStep, cfg.StartAt, cfg.OnComplete, cfg.Epochs = t.dir(), t.RestartStep, startAt, onComplete, t.Epochs
	return cfg
}

// Launch admits every tenant up front (static admission) and spawns its
// ranks, each sleeping until its arrival time. Fails if the tenants'
// combined allocations exceed the machine. The caller then drives the
// kernel once and calls Collect.
func (s *Session) Launch(tenants []Tenant) ([]*Job, error) {
	jobs := make([]*Job, 0, len(tenants))
	for _, t := range tenants {
		a, err := s.Alloc.Alloc(t.Name, t.NP, t.Placement, t.PlacementSeed)
		if err != nil {
			return nil, fmt.Errorf("cluster: admit %q: %w", t.Name, err)
		}
		j, err := s.LaunchOn(a, t)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// LaunchOn spawns a tenant run on an existing allocation without touching
// the allocator — restart phases reuse a tenant's slice so the re-read runs
// on the very nodes that wrote the checkpoint.
func (s *Session) LaunchOn(a *machine.Alloc, t Tenant) (*Job, error) {
	w := mpi.NewWorldOn(s.M, a, mpi.DefaultConfig())
	j := &Job{Tenant: t, Alloc: a, World: w, Admitted: t.Arrival}
	pe, err := nekcem.Launch(w, s.FS, s.runConfig(t, t.Arrival, nil))
	if err != nil {
		return nil, fmt.Errorf("cluster: launch %q: %w", t.Name, err)
	}
	j.pe = pe
	return j, nil
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

// LaunchQueued spawns one admission process per tenant (dynamic
// scheduling): sleep to arrival, queue until capacity frees, place, run,
// and retire the allocation on completion. Serial kernel only. The
// returned jobs fill in Alloc/World/Admitted as the simulation admits
// them; Collect reads them after the kernel ran. A tenant larger than the
// machine fails the launch with a *CapacityError before anything spawns,
// instead of queueing forever.
func (s *Session) LaunchQueued(tenants []Tenant) ([]*Job, error) {
	if s.M.K.Sharded() {
		return nil, fmt.Errorf("cluster: queued admission needs the serial kernel (admission mutates shared allocator state mid-run)")
	}
	if err := CheckCapacity(tenants, s.M.Cfg.Ranks); err != nil {
		return nil, err
	}
	jobs := make([]*Job, len(tenants))
	for i, t := range tenants {
		i, t := i, t
		jobs[i] = &Job{Tenant: t}
		s.M.K.Go("admit."+t.Name, func(p *sim.Proc) {
			p.SleepUntil(t.Arrival)
			var a *machine.Alloc
			for {
				var err error
				a, err = s.Alloc.Alloc(t.Name, t.NP, t.Placement, t.PlacementSeed)
				if err == nil {
					break
				}
				// No span fits: park until some job retires. FIFO within one
				// retirement, but a later small job may overtake a queued
				// large one (backfill) — deterministically so.
				s.waiters = append(s.waiters, p)
				p.Park()
			}
			j := jobs[i]
			j.Alloc = a
			j.Admitted = p.Now()
			j.World = mpi.NewWorldOn(s.M, a, mpi.DefaultConfig())
			pe, err := nekcem.Launch(j.World, s.FS, s.runConfig(t, 0, func(done float64) {
				s.Alloc.Free(a)
				s.wakeQueue()
			}))
			if err != nil {
				panic(fmt.Sprintf("cluster: launch %q: %v", t.Name, err))
			}
			j.pe = pe
		})
	}
	return jobs, nil
}

// wakeQueue unparks every queued admission process, in queue order; each
// retries its allocation at the current instant.
func (s *Session) wakeQueue() {
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		p.Unpark()
	}
}

// Collect finalizes every job after the kernel ran. runErr is the kernel's
// verdict from sim.Kernel.Run.
func Collect(jobs []*Job, runErr error) error {
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

// TenantRanges builds the trace-attribution table for a set of admitted
// jobs, in job order. Install it with Recorder.SetTenants before the
// kernel runs so every span is credited to its tenant.
func TenantRanges(jobs []*Job) []trace.TenantRange {
	rs := make([]trace.TenantRange, len(jobs))
	for i, j := range jobs {
		lo, hi := j.Alloc.Psets()
		rs[i] = trace.TenantRange{
			RankLo: j.Alloc.BaseRank(),
			RankHi: j.Alloc.BaseRank() + j.Alloc.Ranks(),
			PsetLo: lo,
			PsetHi: hi,
		}
	}
	return rs
}
