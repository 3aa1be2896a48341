package recover

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config drives one closed-loop checkpoint/restart lifecycle: compute in
// checkpoint-interval segments, detect kills against the fault schedule,
// roll back to the newest sealed epoch via a manifest scan, restore with
// real read traffic, and re-execute until Work solver steps complete.
type Config struct {
	FS fsys.System
	// NewWorld returns a fresh MPI world for each launched segment (worlds
	// are single-Spawn). Pure allocation — safe to call mid-run.
	NewWorld func() *mpi.World
	// Base is the RunConfig template (Mesh, Strategy, Compute, Synthetic,
	// PayloadFactor, RankUp). Steps, CheckpointEvery, Dir, Epochs and
	// OnComplete are overwritten per segment.
	Base nekcem.RunConfig
	Log  *Log
	// Work is the solver-step budget to complete.
	Work int
	// CheckpointEvery is the checkpoint interval in solver steps.
	CheckpointEvery int
	// SegmentCkpts is how many checkpoint intervals one launched segment
	// spans (default 1). Multi-level strategies need their GlobalEvery here
	// so the periodic global flush actually happens within a segment.
	SegmentCkpts int
	// Injector, when set, is the armed fault injector. A Node Fail event
	// inside a segment's window crashes the lifecycle (MPI dies with the
	// node); ION/server kills only tear epochs or error the storage.
	Injector *fault.Injector
	// Nodes/IONs/Servers is the component census for crash detection and
	// post-failure health waits.
	Nodes, IONs, Servers int
}

// baseDir is the base checkpoint directory; each segment writes into its own
// attempt subdirectory so re-executed steps never collide with the files of
// an abandoned attempt.
const baseDir = "ckpt"

// maxSegments bounds the lifecycle against permanent outages.
const maxSegments = 256

// Result is the measured lifecycle outcome.
type Result struct {
	Start, End float64
	Makespan   float64 // End - Start
	Segments   int     // worlds launched (compute segments only)
	Rollbacks  int
	// ReworkSteps counts banked steps that a rollback un-banked and the
	// lifecycle had to execute again.
	ReworkSteps int
	// LostSegSteps counts steps attempted inside crashed segments (work
	// that was executing when the kill hit and was never banked).
	LostSegSteps int

	TornSeen    int   // torn epochs restart scans detected
	ScanBytes   int64 // manifest bytes read back
	ScanTime    float64
	RestartTime float64 // charged restore-read time
	WaitTime    float64 // waiting for component repairs

	CkptTime    float64 // summed checkpoint step times in clean segments
	CkptCount   int
	ComputeStep float64 // modelled solver seconds per step

	RestartFrom []int64 // global steps restarted from, in rollback order
}

// MeanCkpt returns the mean checkpoint cost C measured across clean
// segments (the Daly model's C).
func (r *Result) MeanCkpt() float64 {
	if r.CkptCount == 0 {
		return 0
	}
	return r.CkptTime / float64(r.CkptCount)
}

// Run executes the lifecycle to completion on the kernel: the driver runs
// as a kernel process so armed fault events interleave with its segments at
// their scheduled times. Serial kernel only (fault injection already forces
// that).
func Run(k *sim.Kernel, cfg Config) (*Result, error) {
	res := &Result{}
	var derr error
	k.Go("recover.driver", func(p *sim.Proc) {
		derr = drive(p, &cfg, res)
	})
	if err := k.Run(); err != nil {
		return res, err
	}
	if derr != nil {
		return res, derr
	}
	return res, nil
}

func drive(p *sim.Proc, cfg *Config, res *Result) error {
	if cfg.Work <= 0 || cfg.CheckpointEvery <= 0 {
		return fmt.Errorf("recover: need positive Work and CheckpointEvery")
	}
	segCkpts := cfg.SegmentCkpts
	if segCkpts <= 0 {
		segCkpts = 1
	}
	segSteps := cfg.CheckpointEvery * segCkpts
	rec := p.Rec()
	res.Start = p.Now()
	completed := 0
	var restart *Epoch
	for completed < cfg.Work {
		if res.Segments >= maxSegments {
			return fmt.Errorf("recover: lifecycle exceeded %d segments at step %d/%d (permanent outage?)",
				maxSegments, completed, cfg.Work)
		}
		if err := waitHealthy(p, cfg, res); err != nil {
			return err
		}
		if restart != nil {
			t0 := p.Now()
			if err := runRestore(p, cfg, restart); err != nil {
				return err
			}
			res.RestartTime += p.Now() - t0
			if rec != nil {
				rec.Span(trace.LayerRecovery, "recover.restore", 0, t0, p.Now(), 0)
			}
			restart = nil
			continue // re-check health: a kill during the restore reads restarts it
		}

		steps := segSteps
		ce := cfg.CheckpointEvery
		if completed+steps > cfg.Work {
			steps = cfg.Work - completed
		}
		segIdx := res.Segments
		dir := fmt.Sprintf("%s/a%03d", baseDir, segIdx)
		seg := cfg.Log.StartSegment(dir, int64(completed), segIdx)
		rcfg := cfg.Base
		rcfg.Dir = dir
		rcfg.Steps = steps
		rcfg.CheckpointEvery = ce
		rcfg.Epochs = seg
		rcfg.RestartStep = 0
		var segEnd float64
		rcfg.OnComplete = func(t float64) {
			segEnd = t
			p.Unpark()
		}
		w := cfg.NewWorld()
		segStart := p.Now()
		pe, err := nekcem.Launch(w, cfg.FS, rcfg)
		if err != nil {
			return err
		}
		p.Park()
		seg.Close()
		res.Segments++

		crashed := false
		crashAt := segEnd
		if serr := pe.Err(); serr != nil {
			if !fsys.Unavailable(serr) {
				return serr
			}
			// The storage died under a strategy without a fault-aware path:
			// the job aborts with an I/O error — a crash, not a sim failure.
			crashed = true
		}
		if cfg.Injector != nil {
			if evs := cfg.Injector.Schedule().FailsIn(fault.Node, segStart, segEnd); len(evs) > 0 {
				crashed = true
				if evs[0].Time < crashAt {
					crashAt = evs[0].Time
				}
			}
		}

		if !crashed {
			r, err := pe.Finish(nil)
			if err != nil {
				return err
			}
			if res.ComputeStep == 0 {
				res.ComputeStep = r.ComputeStep
			}
			for _, agg := range r.Checkpoints {
				res.CkptTime += agg.StepTime()
				res.CkptCount++
			}
			completed += steps
			res.End = segEnd
			continue
		}

		// Crash: the segment's in-flight work is gone; find the newest
		// sealed epoch no younger than the kill and roll back to it.
		res.LostSegSteps += steps
		res.Rollbacks++
		if rec != nil {
			rec.Instant(trace.LayerRecovery, "recover.crash", 0, crashAt)
		}
		if err := waitHealthy(p, cfg, res); err != nil {
			return err
		}
		sres, err := Scan(p, cfg.FS, cfg.Log, crashAt)
		if err != nil {
			return err
		}
		res.TornSeen += sres.Torn
		res.ScanBytes += sres.ReadBytes
		res.ScanTime += sres.End - sres.Start
		newCompleted := 0
		if sres.Pick != nil {
			newCompleted = int(sres.Pick.Step)
			restart = sres.Pick
			res.RestartFrom = append(res.RestartFrom, sres.Pick.Step)
		}
		res.ReworkSteps += completed - newCompleted
		completed = newCompleted
	}
	res.Makespan = res.End - res.Start
	return nil
}

// runRestore launches a fresh world that restores from the epoch's files —
// every rank re-reads its chunk through the storage stack, the storm the
// restartstorm experiment measures in isolation.
func runRestore(p *sim.Proc, cfg *Config, e *Epoch) error {
	rcfg := cfg.Base
	rcfg.Dir = e.Dir
	rcfg.Steps = 0
	rcfg.CheckpointEvery = 0
	rcfg.RestartStep = e.LocalStep
	rcfg.Epochs = nil
	rcfg.OnComplete = func(t float64) { p.Unpark() }
	w := cfg.NewWorld()
	pe, err := nekcem.Launch(w, cfg.FS, rcfg)
	if err != nil {
		return err
	}
	p.Park()
	r, err := pe.Finish(nil)
	if err != nil {
		return fmt.Errorf("recover: restore from step %d (%s): %w", e.Step, e.Dir, err)
	}
	if !r.Restored {
		return fmt.Errorf("recover: restore from step %d (%s): nothing restored", e.Step, e.Dir)
	}
	return nil
}

// waitHealthy sleeps until every injectable component is up, using the
// schedule's repair times. A component that is down with no scheduled
// repair fails the lifecycle (permanent outage).
func waitHealthy(p *sim.Proc, cfg *Config, res *Result) error {
	in := cfg.Injector
	if in == nil {
		return nil
	}
	t0 := p.Now()
	classes := []struct {
		cl fault.Class
		n  int
	}{{fault.Node, cfg.Nodes}, {fault.ION, cfg.IONs}, {fault.Server, cfg.Servers}}
	for {
		worst := -1.0
		for _, c := range classes {
			for i := 0; i < c.n; i++ {
				if in.Up(c.cl, i) {
					continue
				}
				t, ok := in.Schedule().NextRestore(c.cl, i, p.Now())
				if !ok {
					return fmt.Errorf("recover: %s %d is permanently down at t=%.3f", c.cl, i, p.Now())
				}
				if t > worst {
					worst = t
				}
			}
		}
		if worst < 0 {
			res.WaitTime += p.Now() - t0
			return nil
		}
		p.SleepUntil(worst + 1e-9)
	}
}

// KillStats classifies every injected kill against the epoch timeline.
type KillStats struct {
	// MidEpochTorn kills hit while an epoch was in flight and that epoch is
	// torn — the tear was detected.
	MidEpochTorn int
	// MidEpochSealed kills hit while an epoch was in flight yet the epoch
	// sealed — the kill provably did not damage it (e.g. an ION kill on a
	// buffer-less path, or a kill between a rank's commit and its peers').
	MidEpochSealed int
	// Idle kills hit between epochs (compute phases, waits).
	Idle int
}

// String prints the three buckets as torn/sealed/idle, "1/0/2".
func (k KillStats) String() string {
	return fmt.Sprintf("%d/%d/%d", k.MidEpochTorn, k.MidEpochSealed, k.Idle)
}

// ClassifyKills buckets every Fail event fired up to time upto (<= 0: all)
// by whether a global-level epoch was in flight when it hit and how that
// epoch ended. Every mid-epoch kill lands in exactly one of the torn or
// sealed buckets — the acceptance invariant for the two-phase protocol.
func ClassifyKills(l *Log, sched fault.Schedule, upto float64) KillStats {
	var ks KillStats
	epochs := l.Epochs(ckpt.LevelGlobal)
	for _, ev := range sched {
		if ev.Kind != fault.Fail {
			continue
		}
		if upto > 0 && ev.Time > upto {
			continue
		}
		var inFlight *Epoch
		for _, e := range epochs {
			if e.FirstBlockAt >= 0 && e.FirstBlockAt <= ev.Time && ev.Time <= e.LastAt {
				inFlight = e
				break
			}
		}
		switch {
		case inFlight == nil:
			ks.Idle++
		case inFlight.Sealed():
			ks.MidEpochSealed++
		default:
			ks.MidEpochTorn++
		}
	}
	return ks
}
