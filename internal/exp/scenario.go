package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/gpfs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// rngStream names the three machine-RNG derivations the experiments use.
// The goldens pin each of them, so a site keeps the stream it was born with.
type rngStream int

const (
	// streamScaled is seed ^ ranks*0x9e37: checkpoint runs, cluster
	// sessions, frontier and recovery cells, ablations.
	streamScaled rngStream = iota
	// streamNP is seed ^ ranks: restart, multilevel, eq1.
	streamNP
	// streamSeed is the bare seed: the makespan census, meshread, priorwork
	// and cmd/nekcem.
	streamSeed
)

func (s rngStream) seed(seed uint64, ranks int) uint64 {
	switch s {
	case streamScaled:
		return seed ^ uint64(ranks)*0x9e37
	case streamNP:
		return seed ^ uint64(ranks)
	}
	return seed
}

// scenario describes one simulation for build. The zero value plus NP is a
// clean single job on the options' machine and backend.
type scenario struct {
	NP     int // machine size in ranks
	Stream rngStream
	// Job carries per-job machine, placement, backend and fleet overrides;
	// its NP, Strategy, WithLog and Faults are not read here.
	Job Job

	// Pinned components (priorwork, ablations), used instead of the
	// options' machine preset, backend and MPI defaults.
	MachineCfg *machine.Config
	GPFSCfg    *gpfs.Config
	MPICfg     *mpi.Config

	// Faults is armed before the world spawns. The flags below only say
	// what the run will do, for the serial rule.
	Faults    *FaultSpec
	Faulted   bool // the caller arms faults itself mid-run (restartstorm's outage)
	Log       bool // per-op I/O log
	Queued    bool // dynamic cluster admission
	Lifecycle bool // closed-loop recovery driver

	// Metrics attaches a metrics-only recorder when tracing is off: cluster
	// sessions attribute per-tenant time through it.
	Metrics bool
}

// serial is the one rule for which runs stay on the serial kernel. It
// reports whether the scenario runs serially at the requested shard count
// on a machine of psets psets and, when sharding was asked for, why not:
//
//   - "fault injection": fault events mutate shared machine state from
//     schedule context;
//   - "per-op log": the op log appends from every rank;
//   - "queued admission": admission mutates the shared allocator mid-run;
//   - "recovery lifecycle": the fault-free arms stay on the kernel their
//     faulted siblings need, so both are number-identical up to the first
//     fault;
//   - "one pset": there is nothing to partition.
func (sc scenario) serial(shards, psets int) (bool, string) {
	switch {
	case shards <= 1:
		return true, ""
	case sc.Faults != nil || sc.Faulted:
		return true, "fault injection"
	case sc.Log:
		return true, "per-op log"
	case sc.Queued:
		return true, "queued admission"
	case sc.Lifecycle:
		return true, "recovery lifecycle"
	case psets <= 1:
		return true, "one pset"
	}
	return false, ""
}

// env is a built scenario: everything a run needs, wired in build's order.
type env struct {
	o     Options
	NP    int
	K     *sim.Kernel
	M     *machine.Machine
	FS    fsys.System     // raw backend (fault wiring, introspection)
	RunFS fsys.System     // what ranks call: Guard-wrapped when sharded
	Stats *storage.Stats  // live storage-core counters
	Rec   *trace.Recorder // nil when untraced, unless sc.Metrics
	Inj   *fault.Injector // nil unless sc.Faults
	mpi   mpi.Config
}

// build is the single construction site of every simulation in this
// package and cmd/nekcem. The order is fixed:
//
//  1. kernel;
//  2. recorder, before any component exists, so every fabric pipe and
//     storage server instruments itself at construction;
//  3. machine RNG, from sc.Stream;
//  4. machine;
//  5. sharding gate (sc.serial), before any process spawns — storage
//     servers included;
//  6. storage mount;
//  7. fsys.Guard when sharded: storage state is global to the machine, so
//     every time-charging call goes through the exclusive lane;
//  8. faults, armed before the world spawns so the fault events' kernel
//     sequence numbers are fixed by the schedule alone;
//  9. the world factory (env.world), called by the run.
func build(o Options, sc scenario) (*env, error) {
	k := sim.NewKernel()
	var rec *trace.Recorder
	if o.Trace != nil {
		rec = o.Trace.newRecorder()
	} else if sc.Metrics {
		rec = &trace.Recorder{MaxEvents: 0}
	}
	k.SetRecorder(rec)
	rng := xrand.New(sc.Stream.seed(o.seed(), sc.NP))
	mcfg, err := sc.machineConfig(o)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(k, rng, mcfg)
	if err != nil {
		return nil, err
	}
	if serial, _ := sc.serial(o.Shards, m.NumPsets()); !serial {
		k.EnableSharding(m.NumPsets(), o.Shards, mpi.Lookahead(m), o.seed())
	}
	fs, err := sc.mount(o, m)
	if err != nil {
		return nil, err
	}
	sp, ok := fs.(storage.StatsProvider)
	if !ok {
		return nil, fmt.Errorf("exp: backend %q does not expose storage stats", fs.Name())
	}
	e := &env{o: o, NP: sc.NP, K: k, M: m, FS: fs, RunFS: fs, Stats: sp.StorageStats(), Rec: rec, mpi: mpi.DefaultConfig()}
	if k.Sharded() {
		e.RunFS = fsys.Guard(fs)
	}
	if sc.Faults != nil {
		if e.Inj, err = e.attachFaults(sc.Faults); err != nil {
			return nil, err
		}
	}
	if sc.MPICfg != nil {
		e.mpi = *sc.MPICfg
	}
	return e, nil
}

// machineConfig composes the partition: the pinned config if any, else the
// preset the options select with the placement and pset-ratio overrides
// applied. The default composition — Intrepid, txyz — is pinned by the
// machine_*.golden files.
func (sc scenario) machineConfig(o Options) (machine.Config, error) {
	if sc.MachineCfg != nil {
		return *sc.MachineCfg, nil
	}
	d, err := machine.Lookup(o.Machine)
	if err != nil {
		return machine.Config{}, err
	}
	cfg := d.Config(sc.NP)
	if p := sc.Job.Map; p != "" {
		cfg.Placement = p
	} else if o.Map != "" {
		cfg.Placement = o.Map
	}
	// The placement's seed rides the experiment seed so a "random" mapping
	// is reproducible per run; placement never draws from the machine RNG.
	cfg.PlacementSeed = o.seed()
	if sc.Job.NodesPerPset > 0 {
		cfg.NodesPerPset = sc.Job.NodesPerPset
	}
	return cfg, nil
}

// mount mounts the pinned GPFS config if any, else the backend the job (or
// the options) selects with its default configuration; either way the
// Quiet ablation applies.
func (sc scenario) mount(o Options, m *machine.Machine) (fsys.System, error) {
	if sc.GPFSCfg != nil {
		cfg := *sc.GPFSCfg
		if o.Quiet {
			cfg.NoiseProb = 0
		}
		fs, err := gpfs.New(m, cfg)
		if err != nil {
			return nil, err
		}
		return fs, nil
	}
	b := sc.Job.FS
	if b == "" {
		b = o.FS
	}
	mo := fsys.MountOptions{Quiet: o.Quiet, BBNodes: o.BBNodes, BBDrainBW: o.BBDrainBW, Drain: o.Drain}
	if sc.Job.BBNodes > 0 {
		mo.BBNodes = sc.Job.BBNodes
	}
	if sc.Job.BBDrain != "" {
		mo.Drain = sc.Job.BBDrain
	}
	return fsys.Mount(b, m, mo)
}

// world returns a fresh MPI world over the whole machine.
func (e *env) world() *mpi.World { return mpi.NewWorld(e.M, e.mpi) }

// solve runs one solver job on a fresh world.
func (e *env) solve(cfg nekcem.RunConfig) (*nekcem.RunResult, error) {
	return nekcem.Run(e.world(), e.RunFS, cfg)
}

// rankUp is the fault-aware liveness probe for RunConfig.RankUp: a rank is
// up while its node is. Nil when no faults are armed.
func (e *env) rankUp() func(int) bool {
	if e.Inj == nil {
		return nil
	}
	return func(rank int) bool { return e.Inj.Up(fault.Node, e.M.NodeOfRank(rank)) }
}

// epochLog returns a fresh manifest log for an e.NP-rank job. On a backend
// with a drain tier, epoch seals defer to the fleet's drain horizon:
// absorption is not durability.
func (e *env) epochLog() *recover.Log {
	log := recover.NewLog(e.o.seed(), e.NP)
	if di, ok := fsys.AsDrainInfo(e.FS); ok {
		log.SetCommitGate(func(t float64) float64 {
			if h := di.DrainHorizon(); h > t {
				return h
			}
			return t
		})
	}
	return log
}

// components is the fault census: every component that can be killed
// (nodes, IONs, file servers). Links only degrade, so they do not count.
func (e *env) components() int {
	return e.M.NumNodes() + e.M.NumPsets() + numServers(e.FS)
}

// numServers counts a backend's file servers (0 without a server tier).
func numServers(fs fsys.System) int {
	if sc, ok := fs.(interface{ Servers() []*storage.Server }); ok {
		return len(sc.Servers())
	}
	return 0
}

// finish hands the run's recorder, with the kernel's counters, to the
// options' collector under label. A no-op when untraced.
func (e *env) finish(label string) {
	if e.o.Trace == nil {
		return
	}
	e.Rec.Add(trace.LayerKernel, "kernel.events", int64(e.K.Events()))
	e.Rec.Add(trace.LayerKernel, "kernel.dispatched", int64(e.K.Dispatched()))
	e.Rec.Add(trace.LayerKernel, "kernel.woken", int64(e.K.Woken()))
	if st, ok := e.K.ShardStats(); ok {
		e.Rec.Add(trace.LayerKernel, "shard.lane_events", int64(st.LaneEvents))
		e.Rec.Add(trace.LayerKernel, "shard.exclusive_events", int64(st.ExclusiveEvents))
		e.Rec.Add(trace.LayerKernel, "shard.windows", int64(st.Windows))
		e.Rec.Add(trace.LayerKernel, "shard.parallel_windows", int64(st.ParallelWindows))
		e.Rec.Add(trace.LayerKernel, "shard.suspensions", int64(st.Suspensions))
	}
	e.o.Trace.add(TraceEntry{Label: label, NP: e.NP, Makespan: e.K.Now(), Rec: e.Rec})
}

// simulate builds sc, runs one solver job with cfg on it and finishes the
// trace under label.
func simulate(o Options, sc scenario, cfg nekcem.RunConfig, label string) (*env, *nekcem.RunResult, error) {
	e, err := build(o, sc)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.solve(cfg)
	if err != nil {
		return nil, nil, err
	}
	e.finish(label)
	return e, res, nil
}

// paperRestart is nekcem.PaperRun's restart job: a fresh world restoring
// step 1.
func paperRestart(np int, strat ckpt.Strategy) nekcem.RunConfig {
	cfg := nekcem.PaperRun(np, strat, 0, 0)
	cfg.RestartStep = 1
	return cfg
}

// ProductionRun is one production job's outcome.
type ProductionRun struct {
	*nekcem.RunResult
	FS     fsys.System  // the backend the job wrote through
	Epochs *recover.Log // epoch manifests; nil unless Options.Manifests
}

// Production runs one NekCEM production job of np ranks — cfg carries the
// mesh, strategy and step cadence — on the machine and backend the options
// select, built like every experiment run (machine RNG: the bare seed).
// With Options.Manifests the job records its epochs into a fresh log.
func Production(o Options, np int, cfg nekcem.RunConfig) (*ProductionRun, error) {
	e, err := build(o, scenario{NP: np, Stream: streamSeed, Log: cfg.Log != nil})
	if err != nil {
		return nil, err
	}
	pr := &ProductionRun{FS: e.RunFS}
	if o.Manifests {
		pr.Epochs = e.epochLog()
		cfg.Epochs = pr.Epochs.StartSegment(cfg.Dir, 0, 0)
	}
	if pr.RunResult, err = e.solve(cfg); err != nil {
		return nil, err
	}
	e.finish("nekcem/" + cfg.Strategy.Name())
	return pr, nil
}
