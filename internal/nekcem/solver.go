package nekcem

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// RunConfig drives a production NekCEM simulation inside the machine model:
// presetup (global mesh read), time stepping, and coordinated checkpoints.
type RunConfig struct {
	Mesh     Mesh
	Strategy ckpt.Strategy
	Dir      string // checkpoint directory

	Steps           int // solver time steps
	CheckpointEvery int // write a checkpoint every this many steps (0: never)
	DT              float64

	// Synthetic selects sizes-only field data (paper scale). Content mode
	// runs the real SEDG kernel and enables bit-exact restart verification.
	Synthetic bool

	Compute ComputeModel

	// SkipPresetup omits the global mesh read (useful when an experiment
	// measures only checkpointing).
	SkipPresetup bool

	// PayloadFactor scales each component's checkpoint block
	// (Mesh.CheckpointBytesFactor); paper-scale runs use PaperPayloadFactor
	// so S matches the published 39/78/156 GB.
	PayloadFactor int

	// Log, when set, receives per-op records during checkpoints.
	Log *iolog.Log

	// RestartStep, when > 0, restores state from that checkpoint before
	// stepping (content mode verifies sizes/field names too). Checkpoints
	// are written at steps >= 1, so zero means a fresh start.
	RestartStep int64

	// RankUp, when set, makes the checkpoint strategies fault-aware: a rank
	// whose node is down at checkpoint entry contributes nothing, and
	// rbIO groups re-elect around dead writers. Dead ranks still advance
	// the solver loop (the machine's compute procs are untouched); their
	// checkpoint I/O is what disappears.
	RankUp func(worldRank int) bool

	// Epochs, when set, receives two-phase epoch commit records from every
	// checkpoint step (see ckpt.EpochSink). Recording is free in simulated
	// time, so runs with and without a sink are byte-identical.
	Epochs ckpt.EpochSink

	// StartAt delays every rank's first action until the given absolute
	// simulated time. Multi-tenant sessions use it to stagger job arrivals
	// on a shared kernel; zero (the default) starts immediately.
	StartAt float64

	// OnComplete, when set, runs in the last finishing rank's process
	// context the moment every rank's body has returned, with that rank's
	// simulated time. The cluster scheduler uses it to retire a job's
	// allocation while the kernel is still running other tenants.
	OnComplete func(t float64)
}

// PaperRun is the paper's synthetic checkpointing job: the weak-scaling
// mesh at np, paper-scale sizes-only payloads and no presetup, running
// steps solver steps and checkpointing with strategy every every steps
// under "ckpt".
func PaperRun(np int, strategy ckpt.Strategy, steps, every int) RunConfig {
	return RunConfig{
		Mesh:            PaperMesh(np),
		Strategy:        strategy,
		Dir:             "ckpt",
		Steps:           steps,
		CheckpointEvery: every,
		Synthetic:       true,
		SkipPresetup:    true,
		PayloadFactor:   PaperPayloadFactor,
		Compute:         DefaultComputeModel(),
	}
}

// RankCkpt is a rank's condensed view of the final checkpoint, retained for
// the per-rank distribution figures.
type RankCkpt struct {
	Role    ckpt.Role
	Blocked float64
}

// CkptAgg aggregates one checkpoint step across all ranks.
type CkptAgg struct {
	Step       int64
	Start      float64 // earliest rank entry
	MaxEnd     float64 // last rank back in the application
	MaxDurable float64 // last byte durable on storage
	MaxWorker  float64 // slowest worker's blocking (rbIO)
	MaxWriter  float64 // slowest writer's blocking
	Bytes      int64   // total bytes written

	// Perceived-bandwidth ingredients (Table I): bytes shipped by workers
	// and the slowest worker's total Isend hand-off time.
	WorkerBytes  int64
	MaxPerceived float64

	// Fault outcome of the step. DeadRanks counts ranks whose node was down
	// at checkpoint entry; SkippedRanks those that consequently wrote
	// nothing (fault-aware strategies set both together); MissingChunks the
	// group chunks an rbIO writer gave up waiting for; FailedRanks the
	// ranks whose storage commits exhausted the retry budget.
	DeadRanks     int
	SkippedRanks  int
	MissingChunks int
	FailedRanks   int

	// Async-lifecycle outcome of the step (all zero for synchronous
	// strategies). AsyncRanks counts ranks whose Write returned before
	// durability; MaxFlush is the slowest rank's background flush time
	// (snapshot end to durable); LostFlushes counts ranks whose snapshot
	// never became durable — a node died holding it, or the storage refused
	// the aggregated commit.
	AsyncRanks  int
	MaxFlush    float64
	LostFlushes int
	// MaxQueue is the worst drain-queue residency any flush reported: how
	// far past its storage-acknowledged durable point the burst-buffer
	// fleet's drain horizon reached (zero on backends without a drain
	// tier).
	MaxQueue float64

	// MaxBlocked is the longest any single rank was stalled inside Write
	// (its End - Start). Unlike the MaxEnd - Start envelope, it does not
	// absorb the arrival skew between unsynchronized ranks, so it is the
	// honest per-rank blocking cost of the checkpoint.
	MaxBlocked float64
}

// Lost reports whether the checkpoint step lost any state: some rank's data
// never reached durable storage.
func (a *CkptAgg) Lost() bool {
	return a.DeadRanks > 0 || a.SkippedRanks > 0 || a.MissingChunks > 0 ||
		a.FailedRanks > 0 || a.LostFlushes > 0
}

// BlockedTime returns how long the checkpoint stalled the application: the
// slowest single rank's time inside Write. For synchronous strategies this
// is dominated by the collective write; for async ones it is the node-local
// snapshot plus any backpressure wait, and excludes the background flush
// tail — the gap between BlockedTime and StepTime is exactly what async
// buys.
func (a *CkptAgg) BlockedTime() float64 { return a.MaxBlocked }

// StepTime returns the checkpoint step's wall time (entry to durability),
// the quantity in the paper's Figure 6.
func (a *CkptAgg) StepTime() float64 {
	end := a.MaxDurable
	if a.MaxEnd > end {
		end = a.MaxEnd
	}
	return end - a.Start
}

// Bandwidth returns the write bandwidth (bytes/s) the paper plots in
// Figures 5 and 8: total data over the slowest participant's wall time.
func (a *CkptAgg) Bandwidth() float64 {
	t := a.StepTime()
	if t <= 0 {
		return 0
	}
	return float64(a.Bytes) / t
}

// PerceivedBandwidth returns Table I's perceived write speed: all worker
// data over the slowest worker's hand-off time. Zero for strategies without
// workers.
func (a *CkptAgg) PerceivedBandwidth() float64 {
	if a.MaxPerceived <= 0 {
		return 0
	}
	return float64(a.WorkerBytes) / a.MaxPerceived
}

// RunResult summarizes a production run.
type RunResult struct {
	Wall        float64 // kernel time when the result was collected
	Started     float64 // when rank 0's body began (after any StartAt delay)
	Done        float64 // when the last rank's body returned
	Presetup    float64 // presetup phase duration
	ComputeStep float64 // modelled solver seconds per time step (max rank)
	Checkpoints []*CkptAgg
	PerRank     []RankCkpt // per-rank stats of the final checkpoint, by comm rank
	Restored    bool
}

// TotalCheckpoint returns the summed checkpoint step times.
func (rr *RunResult) TotalCheckpoint() float64 {
	var t float64
	for _, c := range rr.Checkpoints {
		t += c.StepTime()
	}
	return t
}

// Pending is a launched-but-not-collected run: its ranks are spawned on
// the kernel but the kernel has not (necessarily) been driven to
// completion. Multi-tenant sessions Launch several runs on one kernel,
// drive it once, then Finish each.
type Pending struct {
	w   *mpi.World
	fs  fsys.System
	cfg RunConfig
	env *ckpt.Env
	res *RunResult

	// Ranks on different partition lanes of a sharded kernel run on
	// different OS threads; everything they merge into across ranks is
	// guarded by mu. Every merged quantity commutes (min/max, integer
	// sums), so the aggregate is identical whatever order lanes reach it
	// in.
	mu       sync.Mutex
	firstErr error
	aggs     map[int64]*CkptAgg
	order    []int64
	left     int // rank bodies not yet returned
}

// Run executes the production loop on every rank of the world and returns
// the aggregated result. It must be called once per World.
func Run(w *mpi.World, fs fsys.System, cfg RunConfig) (*RunResult, error) {
	pe, err := Launch(w, fs, cfg)
	if err != nil {
		return nil, err
	}
	return pe.Finish(w.K.Run())
}

// Launch validates the configuration, preloads input files, and spawns
// every rank's body on the kernel without driving it. The caller runs the
// kernel (once, for however many launched worlds share it) and then calls
// Finish to collect the result.
func Launch(w *mpi.World, fs fsys.System, cfg RunConfig) (*Pending, error) {
	if cfg.Strategy == nil && cfg.CheckpointEvery > 0 {
		return nil, fmt.Errorf("nekcem: checkpointing requested without a strategy")
	}
	if cfg.DT == 0 {
		cfg.DT = 1e-3
	}
	np := w.Size()
	pe := &Pending{
		w:    w,
		fs:   fs,
		cfg:  cfg,
		env:  &ckpt.Env{FS: fs, Dir: cfg.Dir, Log: cfg.Log, RankUp: cfg.RankUp, Epochs: cfg.Epochs},
		res:  &RunResult{PerRank: make([]RankCkpt, np)},
		aggs: map[int64]*CkptAgg{},
		left: np,
	}

	// Mesh input files pre-exist on the file system.
	if !cfg.SkipPresetup {
		fs.Preload(pe.meshPath(), cfg.Mesh.MeshFileBytes())
	}

	// The rank body keeps a small frame: every wait of the rank parks with
	// this frame on its stack, and the runtime sizes new goroutine stacks
	// from the average parked depth (see DESIGN.md §5). Each phase that
	// needs more room runs in a helper that has returned before the next
	// phase parks.
	w.Spawn(func(c *mpi.Comm, r *mpi.Rank) {
		cfg := &pe.cfg
		if cfg.StartAt > 0 {
			r.Proc().SleepUntil(cfg.StartAt)
		}
		if c.Rank(r) == 0 {
			pe.res.Started = r.Now()
		}
		var plan ckpt.Plan
		if cfg.Strategy != nil {
			var err error
			if plan, err = cfg.Strategy.Plan(c, r); err != nil {
				pe.fail(err)
				pe.rankDone(r)
				return
			}
		}
		if st := pe.setup(c, r, plan); st != nil && pe.steps(c, r, plan, st) {
			if ap, ok := plan.(ckpt.AsyncPlan); ok {
				pe.drain(r, ap)
			}
		}
		pe.rankDone(r)
	})
	return pe, nil
}

func (pe *Pending) meshPath() string { return pe.cfg.Dir + "/waveguide.rea" }

// fail records a rank's application-level error; the first one wins.
func (pe *Pending) fail(err error) {
	pe.mu.Lock()
	if pe.firstErr == nil {
		pe.firstErr = err
	}
	pe.mu.Unlock()
}

// setup runs the presetup phase and builds the rank's solver state,
// restored from cfg.RestartStep when set. It returns nil after recording a
// failure.
func (pe *Pending) setup(c *mpi.Comm, r *mpi.Rank, plan ckpt.Plan) *State {
	cfg := &pe.cfg
	if !cfg.SkipPresetup && !pe.presetup(c, r) {
		return nil
	}
	np := c.Size()
	var st *State
	if cfg.Synthetic {
		st = NewSyntheticState(cfg.Mesh, c.Rank(r), np)
	} else {
		st = NewState(cfg.Mesh, c.Rank(r), np)
		st.InitWaveguide()
	}
	st.PayloadFactor = cfg.PayloadFactor
	if cfg.RestartStep > 0 && plan != nil {
		cp, err := plan.Read(pe.env, r, cfg.RestartStep)
		if err != nil {
			pe.fail(fmt.Errorf("nekcem: restart: %w", err))
			return nil
		}
		if err := st.Restore(cp); err != nil {
			pe.fail(err)
			return nil
		}
		if c.Rank(r) == 0 {
			pe.res.Restored = true
		}
	}
	return st
}

// presetup reads the global mesh on rank 0, which parses and broadcasts
// it; every rank then builds its local element data. It reports false
// after recording a failure.
func (pe *Pending) presetup(c *mpi.Comm, r *mpi.Rank) bool {
	p, cfg, fs := r.Proc(), &pe.cfg, pe.fs
	if c.Rank(r) == 0 {
		h, err := fs.Open(p, r.ID(), pe.meshPath())
		if err != nil {
			pe.fail(err)
			return false
		}
		buf, err := h.ReadAt(p, r.ID(), 0, cfg.Mesh.MeshFileBytes())
		if err != nil {
			pe.fail(err)
			return false
		}
		if err := h.Close(p, r.ID()); err != nil {
			pe.fail(err)
			return false
		}
		p.Sleep(45e-6 * float64(cfg.Mesh.E)) // global parse / genmap assignment
		c.Bcast(r, 0, buf)
	} else {
		c.Bcast(r, 0, data.Buf{})
	}
	p.Sleep(2e-6 * float64(cfg.Mesh.ElemsOnRank(c.Rank(r), c.Size()))) // local setup
	c.Barrier(r)
	if c.Rank(r) == 0 {
		pe.res.Presetup = r.Now()
	}
	return true
}

// steps runs the time-step loop, checkpointing every cfg.CheckpointEvery
// steps. It reports false after recording a failure.
func (pe *Pending) steps(c *mpi.Comm, r *mpi.Rank, plan ckpt.Plan, st *State) bool {
	cfg, k := &pe.cfg, pe.w.M.K
	stepTime := cfg.Compute.StepTime(st.Mesh.PointsOnRank(c.Rank(r), c.Size()))
	if c.Rank(r) == 0 {
		pe.res.ComputeStep = stepTime
	}
	for step := 1; step <= cfg.Steps; step++ {
		st.Advance(cfg.DT) // real kernel in content mode, counters otherwise
		if k.Recorder() != nil {
			prev := k.SetLayer(trace.LayerCompute)
			r.Proc().Sleep(stepTime)
			k.SetLayer(prev)
		} else {
			r.Proc().Sleep(stepTime)
		}
		if cfg.CheckpointEvery > 0 && step%cfg.CheckpointEvery == 0 && !pe.checkpoint(c, r, plan, st) {
			return false
		}
	}
	return true
}

// checkpoint writes one checkpoint step of st through plan and merges the
// rank's outcome into the step's aggregate. It reports false after
// recording a failure.
func (pe *Pending) checkpoint(c *mpi.Comm, r *mpi.Rank, plan ckpt.Plan, st *State) bool {
	r.Proc().AwaitNow((*snapshot)(st))
	s := ckptStep{cp: st.snap, up: pe.cfg.RankUp == nil || pe.cfg.RankUp(r.ID())}
	st.snap = nil
	s.prev, s.t0 = r.Proc().Enter(trace.LayerCkpt)
	s.stats, s.err = plan.Write(pe.env, r, s.cp)
	if rankUp := pe.cfg.RankUp; rankUp != nil && s.up && s.err == nil {
		// Did the node die before the write finished? Asked here, not in
		// record, whose frame would carry the query past 2 KB of stack.
		s.up = rankUp(r.ID())
	}
	return pe.record(c, r, &s)
}

// snapshot is a rank's State awaited as the rank's continuation
// (sim.Proc.AwaitNow): it builds the checkpoint into State.snap on the
// driver's stack. Under the solver's frames the payload's allocations were
// the deepest calls a worker rank made, and they grew its stack past 2 KB.
type snapshot State

func (s *snapshot) Continue() bool {
	st := (*State)(s)
	st.snap = st.Checkpoint()
	return true
}

// ckptStep is one rank's checkpoint step in flight. checkpoint keeps it in
// one stack slot, so the frame parked under the strategy's Write holds
// little else.
type ckptStep struct {
	cp    *ckpt.Checkpoint
	up    bool        // the rank's node was up at checkpoint entry and, once Write returned, at its end
	prev  trace.Layer // the layer to restore when tracing
	t0    float64     // the step's entry time when tracing
	stats ckpt.Stats
	err   error
}

// record closes a checkpoint step: it traces the step, then merges the
// rank's outcome into the step's aggregate, or records the step's error
// and reports false. It runs after Write returns, so its frame is never
// parked.
func (pe *Pending) record(c *mpi.Comm, r *mpi.Rank, s *ckptStep) bool {
	r.Proc().Leave(s.prev, trace.LayerCkpt, "ckpt.step", r.ID(), s.t0, s.cp.TotalBytes())
	if s.err != nil {
		pe.fail(s.err)
		return false
	}
	stats := &s.stats
	if pe.cfg.RankUp != nil && !s.up {
		// The rank's node was down at checkpoint entry, or died before the
		// write finished (the second query ran at stats.End, the rank's
		// current time): either way its state is not durably complete.
		// This also covers strategies without a fault-aware path (coIO),
		// whose dead ranks ghost through the collectives. The size of this
		// window is each strategy's real exposure — a full write for
		// 1PFPP/coIO, only the hand-off for rbIO workers.
		stats.DeadRank = true
	}
	step := s.cp.Step
	pe.mu.Lock()
	agg, ok := pe.aggs[step]
	if !ok {
		agg = &CkptAgg{Step: step, Start: stats.Start}
		pe.aggs[step] = agg
		pe.order = append(pe.order, step)
	}
	mergeStats(agg, *stats)
	pe.mu.Unlock()
	pe.res.PerRank[c.Rank(r)] = RankCkpt{Role: stats.Role, Blocked: stats.Blocked()}
	return true
}

// drain closes the async lifecycle: every snapshot this rank contributed
// must be durable (or known lost) before its body may end, so the run's
// makespan honestly includes the flush tail.
func (pe *Pending) drain(r *mpi.Rank, ap ckpt.AsyncPlan) {
	rec := pe.w.M.K.Recorder()
	var dt0 float64
	if rec != nil {
		dt0 = r.Now()
	}
	flushes, err := ap.WaitDurable(pe.env, r)
	if err != nil {
		pe.fail(err)
		return
	}
	if rec != nil && r.Now() > dt0 {
		r.Proc().Rec().Span(trace.LayerAsync, "ckpt.drain", r.ID(), dt0, r.Now(), 0)
	}
	pe.mu.Lock()
	for _, fst := range flushes {
		if agg := pe.aggs[fst.Step]; agg != nil {
			mergeFlush(agg, fst)
		}
	}
	pe.mu.Unlock()
}

// mergeFlush folds one rank's deferred flush outcome into its step's
// aggregate (the caller holds the aggregation mutex).
func mergeFlush(agg *CkptAgg, f ckpt.FlushStats) {
	if f.Lost {
		agg.LostFlushes++
		return
	}
	if f.Durable > agg.MaxDurable {
		agg.MaxDurable = f.Durable
	}
	if fs := f.FlushSec(); fs > agg.MaxFlush {
		agg.MaxFlush = fs
	}
	if f.QueueSec > agg.MaxQueue {
		agg.MaxQueue = f.QueueSec
	}
}

// rankDone records a rank body's return. When it is the last one, the run's
// completion time is final and the OnComplete hook (if any) fires in this
// rank's process context.
func (pe *Pending) rankDone(r *mpi.Rank) {
	t := r.Now()
	pe.mu.Lock()
	if t > pe.res.Done {
		pe.res.Done = t
	}
	pe.left--
	last := pe.left == 0
	pe.mu.Unlock()
	if last && pe.cfg.OnComplete != nil {
		pe.cfg.OnComplete(pe.res.Done)
	}
}

// Err returns the first application-level error a rank hit, if any.
func (pe *Pending) Err() error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.firstErr
}

// Finish collects the aggregated result after the kernel has run. runErr is
// the kernel's own verdict (deadlock detection); an application-level error
// usually strands the other ranks in their collectives, producing a
// deadlock report, so the app error — the root cause — is reported first.
func (pe *Pending) Finish(runErr error) (*RunResult, error) {
	if pe.firstErr != nil {
		return nil, pe.firstErr
	}
	if runErr != nil {
		return nil, runErr
	}
	// Serially, steps are first reached in ascending order; under a sharded
	// kernel lanes may reach a step's aggregate in any real-time order, so
	// sort to pin the serial presentation.
	sort.Slice(pe.order, func(i, j int) bool { return pe.order[i] < pe.order[j] })
	res := pe.res
	res.Checkpoints = res.Checkpoints[:0]
	for _, stepIdx := range pe.order {
		res.Checkpoints = append(res.Checkpoints, pe.aggs[stepIdx])
	}
	res.Wall = pe.w.M.K.Now()
	return res, nil
}

func mergeStats(agg *CkptAgg, s ckpt.Stats) {
	if s.DeadRank {
		agg.DeadRanks++
	}
	if s.Failed {
		agg.FailedRanks++
	}
	agg.MissingChunks += s.MissingChunks
	if s.Skipped {
		// A skipped rank reports Start == End == its entry time and no
		// bytes; it must not stretch the step's timing envelope.
		agg.SkippedRanks++
		return
	}
	if s.Start < agg.Start {
		agg.Start = s.Start
	}
	if s.End > agg.MaxEnd {
		agg.MaxEnd = s.End
	}
	if s.Durable > agg.MaxDurable {
		agg.MaxDurable = s.Durable
	}
	agg.Bytes += s.Bytes
	if s.Blocked() > agg.MaxBlocked {
		agg.MaxBlocked = s.Blocked()
	}
	if s.Async {
		agg.AsyncRanks++
	}
	switch s.Role {
	case ckpt.RoleWorker:
		if s.Blocked() > agg.MaxWorker {
			agg.MaxWorker = s.Blocked()
		}
		agg.WorkerBytes += s.Bytes
		if s.Perceived > agg.MaxPerceived {
			agg.MaxPerceived = s.Perceived
		}
	case ckpt.RoleWriter:
		if s.Blocked() > agg.MaxWriter {
			agg.MaxWriter = s.Blocked()
		}
	}
}
