// Package exp defines one runnable experiment per table and figure of the
// paper's evaluation (Section V). Each experiment builds a fresh machine +
// GPFS + MPI world at the requested scale, runs the NekCEM proxy through
// one or more checkpoint steps with the strategy under test, and returns
// printable rows whose shape is directly comparable to the paper's plots.
//
// The cmd/iobench binary and the repository's benchmarks both drive this
// package, so the numbers in EXPERIMENTS.md regenerate from either.
package exp

import (
	"fmt"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/nekcem"
	"repro/internal/storage"
)

// Options configure an experiment run. Zero values mean "default"; the
// single place defaults are resolved is normalize (options.go).
type Options struct {
	Seed uint64
	// NPs are the processor counts to sweep. Defaults to the paper's
	// 16K/32K/64K weak-scaling points.
	NPs []int
	// Quiet disables the shared-storage noise model (the paper ran under
	// normal load; Quiet is the ablation).
	Quiet bool
	// FS selects the storage backend checkpoint experiments run against:
	// "gpfs" (the default, also chosen by ""), "pvfs", or "bbuf". Experiments
	// that sweep GPFS-specific knobs (the ablations, prior work) always use
	// gpfs regardless.
	FS fsys.Backend
	// Machine selects the machine preset simulations run on: "intrepid"
	// (the default, also chosen by ""), "bgl", "fattree", or "dragonfly" —
	// whatever the machine registry holds. Experiments that intentionally
	// pin a machine (priorwork's BG/L arm) ignore it.
	Machine string
	// Map overrides the preset's rank→node placement policy ("txyz",
	// "xyzt", "blocked", "roundrobin", "random"); "" keeps the preset's
	// own mapping.
	Map string
	// Parallel is the worker-pool size of the experiment runner (runCells,
	// under RunSet/RunAll and every pooled sweep): 0 means one worker per
	// CPU, 1 forces serial execution. Simulations are deterministic per-run,
	// so the worker count changes wall-clock time only, never results.
	Parallel int
	// Shards enables the partitioned parallel kernel inside each
	// simulation: the event space splits into one sub-kernel per pset,
	// advancing in conservative lookahead windows executed by this many
	// worker threads. 0 or 1 keep the serial kernel. Sharded runs are
	// byte-identical to serial ones for every shard count (the
	// sharded-equivalence goldens pin it), so the knob trades nothing but
	// wall-clock. Runs with a serial reason (scenario.serial: fault
	// injection, per-op log, queued admission, recovery lifecycle, one
	// pset) keep the serial kernel.
	Shards int
	// Trace, when set, attaches a fresh trace.Recorder to every simulation
	// kernel the experiment builds and collects one entry per run. Tracing
	// never perturbs simulated time: results are byte-identical with and
	// without it.
	Trace *TraceCollector
	// Ckpt, when non-empty, restricts headline sweeps (Figure 5/6/7, Table
	// I) to the one named strategy from the ckpt registry instead of the
	// full five-arm comparison. Experiments with fixed strategy casts (the
	// ablations, the fault and recovery studies) ignore it.
	Ckpt string
	// BBNodes sizes the burst-buffer fleet for bbuf-backed runs (the -bb
	// flag): 0 keeps the legacy one-private-node-per-ION shape; any other
	// count mounts a shared striped fleet of that many nodes. Backends
	// without a buffer tier ignore it.
	BBNodes int
	// BBDrainBW overrides the per-fleet-node drain bandwidth in bytes/s
	// (0 = the backend default, 250 MB/s).
	BBDrainBW float64
	// Drain names the burst-buffer drain-scheduler policy from the bbuf
	// registry ("" = fifo; the -drain flag). CLIs validate it before
	// building Options.
	Drain string
}

// PaperNPs are the paper's weak-scaling processor counts.
var PaperNPs = []int{16384, 32768, 65536}

// Approaches returns the paper's five headline configurations (Figure 5's
// legend) for a given processor count, built from the ckpt strategy
// registry so the experiment arms and the CLI -ckpt names stay one list.
func Approaches(np int) []ckpt.Strategy {
	return strategiesByName(np, ckpt.HeadlineNames...)
}

// ApproachLabels are the paper's legend strings, index-aligned with
// Approaches; they come from the registry descriptors.
var ApproachLabels = approachLabels()

func approachLabels() []string {
	out := make([]string, len(ckpt.HeadlineNames))
	for i, name := range ckpt.HeadlineNames {
		d, err := ckpt.Lookup(name)
		if err != nil {
			panic(err)
		}
		out[i] = d.Label
	}
	return out
}

// strategiesByName builds a strategy list from registry names; every sweep
// in this package derives its arms through it. Unknown names are wiring
// bugs (the lists are static), so it panics like ckpt.MustNew.
func strategiesByName(np int, names ...string) []ckpt.Strategy {
	out := make([]ckpt.Strategy, len(names))
	for i, name := range names {
		out[i] = ckpt.MustNew(name, np)
	}
	return out
}

// Run is one checkpoint-step execution of a strategy at scale.
type Run struct {
	NP      int
	S       int64 // bytes written
	Agg     *nekcem.CkptAgg
	PerRank []nekcem.RankCkpt
	Log     *iolog.Log
	Result  *nekcem.RunResult
	FSStats storage.Stats
	Buffer  *bbuf.BufferStats // burst-buffer tier counters; nil unless FS was bbuf
	Events  uint64            // kernel events dispatched over the whole simulation
	Fault   *FaultOutcome     // fault-injection outcome; nil unless the job carried a FaultSpec
}

// runCheckpoint executes exactly one coordinated checkpoint step of the
// job's strategy on an np-rank partition, against the backend the job (or,
// if the job leaves it empty, the options) selects, and returns the
// measurements. Job.WithLog controls whether per-op records are collected
// (they cost memory at 64K).
func runCheckpoint(o Options, j Job) (*Run, error) {
	np := j.NP
	e, err := build(o, scenario{NP: np, Job: j, Faults: j.Faults, Log: j.WithLog})
	if err != nil {
		return nil, err
	}
	rcfg := nekcem.PaperRun(np, j.Strategy, 1, 1)
	if j.WithLog {
		rcfg.Log = &iolog.Log{}
	}
	rcfg.RankUp = e.rankUp()
	label := fmt.Sprintf("%s/%s", e.FS.Name(), j.Strategy.Name())
	res, err := e.solve(rcfg)
	if err != nil {
		if j.Faults != nil && fsys.Unavailable(err) {
			// A strategy without a fault-aware path hit dead storage
			// mid-collective: the checkpoint is lost, but the trial itself
			// succeeded at measuring that.
			e.finish(label)
			return &Run{NP: np, FSStats: *e.Stats, Events: e.K.Events(), Fault: &FaultOutcome{
				Lost: true, Counts: e.Inj.Counts(),
			}}, nil
		}
		return nil, fmt.Errorf("exp: %s on %s at np=%d: %w", j.Strategy.Name(), e.FS.Name(), np, err)
	}
	if len(res.Checkpoints) != 1 {
		return nil, fmt.Errorf("exp: expected 1 checkpoint, got %d", len(res.Checkpoints))
	}
	r := &Run{
		NP:      np,
		S:       res.Checkpoints[0].Bytes,
		Agg:     res.Checkpoints[0],
		PerRank: res.PerRank,
		Log:     rcfg.Log,
		Result:  res,
		FSStats: *e.Stats,
		Events:  e.K.Events(),
	}
	if b, ok := e.FS.(*bbuf.FileSystem); ok {
		st := b.Buffer()
		r.Buffer = &st
	}
	if j.Faults != nil {
		r.Fault = e.faultOutcome(j, r)
		r.Events = e.K.Events()
	}
	e.finish(label)
	return r, nil
}

// faultOutcome condenses a faulted run's loss accounting and, when the spec
// asks and nothing was lost, drives a fresh job's restart from the surviving
// checkpoint on the same (possibly still-degraded) storage.
func (e *env) faultOutcome(j Job, r *Run) *FaultOutcome {
	agg := r.Agg
	fo := &FaultOutcome{
		DeadRanks:     agg.DeadRanks,
		MissingChunks: agg.MissingChunks,
		Failovers:     r.FSStats.Failovers,
		CommitErrors:  r.FSStats.CommitErrors,
		Counts:        e.Inj.Counts(),
	}
	if r.Buffer != nil {
		fo.LostBufferBytes = r.Buffer.LostBytes
	}
	fo.Lost = agg.Lost() || fo.LostBufferBytes > 0 || fo.CommitErrors > 0
	if !j.Faults.TryRestart || fo.Lost {
		return fo
	}
	res2, err := e.solve(paperRestart(r.NP, j.Strategy))
	fo.RestartOK = err == nil && res2.Restored
	return fo
}

// GB converts bytes/s to the paper's GB/s (decimal).
func GB(bytesPerSec float64) float64 { return bytesPerSec / 1e9 }
