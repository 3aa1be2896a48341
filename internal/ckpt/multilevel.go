package ckpt

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpi"
)

// MultiLevel is an SCR-style multi-level checkpointing extension (the
// paper's Related Work discusses SCR [32] and notes Blue Gene/P's compute
// node kernel could not host its RAM-disk level — "this barrier will
// disappear as future leadership computing systems provide more
// full-featured OS capabilities"; this strategy explores that future).
//
// Every checkpoint is written to node-local RAM disk — fast, and sufficient
// to recover from application-level failures. Every GlobalEvery-th
// checkpoint is additionally written to the parallel file system with the
// wrapped Global strategy, covering node-loss failures. Restart prefers the
// local level and falls back to the global one.
type MultiLevel struct {
	// Global is the parallel-file-system strategy for the durable level.
	Global Strategy
	// GlobalEvery writes every k-th checkpoint globally (1 = every one).
	GlobalEvery int
}

// The node-local RAM disk that MultiLevel's local level and Async's
// snapshots write to: its bandwidth, shared by a node's four ranks (DDR2
// share on BG/P-class hardware), and its per-write latency.
const (
	localBW      float64 = 1.4e9
	localLatency float64 = 20e-6
)

// DefaultMultiLevel wraps the paper's rbIO with a local level flushed
// globally every 4th checkpoint.
func DefaultMultiLevel() MultiLevel {
	return MultiLevel{
		Global:      DefaultRbIO(),
		GlobalEvery: 4,
	}
}

// Name implements Strategy.
func (s MultiLevel) Name() string {
	return fmt.Sprintf("multilevel(local+%s/%d)", s.Global.Name(), s.globalEvery())
}

func (s MultiLevel) globalEvery() int {
	if s.GlobalEvery < 1 {
		return 1
	}
	return s.GlobalEvery
}

// Plan implements Strategy.
func (s MultiLevel) Plan(c *mpi.Comm, r *mpi.Rank) (Plan, error) {
	if s.Global == nil {
		return nil, fmt.Errorf("ckpt/multilevel: no global strategy")
	}
	gp, err := s.Global.Plan(c, r)
	if err != nil {
		return nil, err
	}
	// One RAM-disk pipe per compute node, shared by its ranks, so every rank
	// of a node contends on it.
	sh := c.Shared(r, func() any { return buildMLShared(c, r) }).(*mlShared)
	return &mlPlan{
		cfg:    s,
		global: gp,
		sh:     sh,
		count:  map[int]int{},
	}, nil
}

// mlShared is the plan state all ranks of a communicator share. Both maps
// are filled once, before any checkpoint, and are read-only afterwards: a
// pipe is only driven by its node's ranks and a slot only by its rank, so
// under the partitioned kernel every mutation stays inside one pset's
// partition.
type mlShared struct {
	pipes map[int]*fabric.Pipe // node -> RAM-disk pipe
	local map[int]*localCkpt   // world rank -> latest local checkpoint slot
}

func buildMLShared(c *mpi.Comm, r *mpi.Rank) *mlShared {
	m := r.World().M
	sh := &mlShared{pipes: map[int]*fabric.Pipe{}, local: map[int]*localCkpt{}}
	for i := 0; i < c.Size(); i++ {
		w := c.WorldRank(i)
		sh.local[w] = &localCkpt{}
		if node := m.NodeOfRank(w); sh.pipes[node] == nil {
			sh.pipes[node] = fabric.NewPipe(fmt.Sprintf("ramdisk/n%d", node), localLatency, localBW)
		}
	}
	return sh
}

// localCkpt is a rank's most recent RAM-disk checkpoint (nil cp: empty).
type localCkpt struct {
	cp *Checkpoint
}

type mlPlan struct {
	cfg    MultiLevel
	global Plan
	sh     *mlShared
	count  map[int]int // per-rank checkpoint counter (rank-local)
}

// nodePipe returns the RAM-disk pipe of the calling rank's node.
func (pl *mlPlan) nodePipe(r *mpi.Rank) *fabric.Pipe {
	return pl.sh.pipes[r.World().M.NodeOfRank(r.ID())]
}

// Write implements Plan: always local, periodically also global.
func (pl *mlPlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (Stats, error) {
	if _, err := cp.ChunkBytes(); err != nil {
		return Stats{}, err
	}
	start := r.Now()
	_, end := pl.nodePipe(r).Transfer(r.Now(), cp.TotalBytes())
	r.Proc().SleepUntil(end)
	pl.sh.local[r.ID()].cp = cp
	if !env.Up(r.ID()) {
		env.epochLost(LevelLocal, cp.Step, r.ID(), "node down", r.Now())
	} else {
		env.epochBlock(LevelLocal, cp.Step, r.ID(),
			fmt.Sprintf("ram/n%d/step%06d", r.World().M.NodeOfRank(r.ID()), cp.Step),
			0, cp.TotalBytes(), r.Now())
		env.epochCommit(LevelLocal, cp.Step, r.ID(), 1, r.Now())
	}

	pl.count[r.ID()]++
	if pl.count[r.ID()]%pl.cfg.globalEvery() == 0 {
		gs, err := pl.global.Write(env, r, cp)
		if err != nil {
			return Stats{}, err
		}
		gs.Start = start // include the local phase in the blocked window
		return gs, nil
	}
	now := r.Now()
	return Stats{
		Role:      RoleAll,
		Start:     start,
		End:       now,
		Perceived: now - start,
		Bytes:     cp.TotalBytes(),
		Durable:   now, // durable at level 1 (survives application failure)
	}, nil
}

// Read implements Plan: local first, global as the fallback.
func (pl *mlPlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	if cp := pl.sh.local[r.ID()].cp; cp != nil && cp.Step == step {
		_, end := pl.nodePipe(r).Transfer(r.Now(), cp.TotalBytes())
		r.Proc().SleepUntil(end)
		return cp, nil
	}
	return pl.global.Read(env, r, step)
}
