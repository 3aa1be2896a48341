package ckpt

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fabric"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Async is asynchronous aggregated checkpointing in the VELOC lineage
// ("Towards Aggregated Asynchronous Checkpointing"): at a checkpoint step a
// rank snapshots its fields to node-local memory at a memory-bandwidth rate
// and immediately returns to the application — Write's blocking phase is
// the snapshot alone. When the last member of a pset has snapshotted, a
// background aggregation agent coalesces the pset's snapshots into one file
// and flushes it through the shared storage stack while the solver
// computes; the flush traffic contends on the same simulated links and
// servers as everything else, which is the compute/flush interference the
// frontier experiment measures.
//
// The deferred durability is visible, not hidden: Write returns Stats with
// Async set and Durable zero, and the flush outcome (durable time, or a
// genuine loss when a node dies holding an unflushed snapshot) arrives
// through AsyncPlan.WaitDurable. Epoch commits are issued by the agent at
// flush completion, so an epoch seals only when the data is actually on
// storage — a killed node's unflushed snapshot permanently tears its epoch.
//
// Snapshots go to node-local memory at localBW and localLatency, shared by
// a node's ranks.
type Async struct {
	// Hints configure the collective restart read.
	Hints mpiio.Hints
}

// asyncSlots is how many checkpoint steps a rank may keep in background
// flight before Write applies backpressure (blocks on the oldest flush).
const asyncSlots int = 2

// DefaultAsync returns the headline configuration: RAM-disk-rate local
// snapshots, two flush slots of lookahead per rank.
func DefaultAsync() Async {
	return Async{Hints: mpiio.DefaultHints()}
}

// Name implements Strategy.
func (s Async) Name() string { return fmt.Sprintf("async(agg,slots=%d)", asyncSlots) }

// asyncFile names the aggregated output of one pset.
func asyncFile(dir string, step int64, pset int) string {
	return fmt.Sprintf("%s/step%06d.a%05d.nek", dir, step, pset)
}

// Plan implements Strategy: group the communicator by pset (the aggregation
// domain — a pset's ranks funnel through one I/O node, so its agent
// naturally owns their flush) and build the shared per-pset flight state.
func (s Async) Plan(c *mpi.Comm, r *mpi.Rank) (Plan, error) {
	me := c.Rank(r)
	pset := r.World().M.PsetOfRank(r.ID())
	shared := c.Shared(r, func() any { return buildAsyncShared(c, r) }).(*asyncShared)
	group := c.Split(r, int64(pset), int64(me))
	ps := shared.psets[pset]
	return &asyncPlan{cfg: s, group: group, ps: ps, pset: pset, idx: ps.idxOf[me]}, nil
}

// asyncShared is the plan state all ranks of a communicator share. The pset
// map is built once, before any checkpoint, and is read-only afterwards;
// each pset's inner state is mutated only by that pset's own ranks (and its
// agent), so under the partitioned kernel every mutation stays confined to
// one partition.
type asyncShared struct {
	psets map[int]*asyncPset
}

// asyncPset is one aggregation domain: the member ranks (ascending
// communicator order — also the chunk order in the aggregated file), their
// per-node snapshot pipes, and the in-flight checkpoint steps.
type asyncPset struct {
	ranks   []int                  // communicator ranks, ascending
	world   []int                  // world ranks, index-aligned with ranks
	idxOf   map[int]int            // communicator rank -> member index
	pipes   map[int]*fabric.Pipe   // node -> RAM snapshot pipe
	flights map[int64]*asyncFlight // step -> accumulating flight
}

func buildAsyncShared(c *mpi.Comm, r *mpi.Rank) *asyncShared {
	m := r.World().M
	sh := &asyncShared{psets: map[int]*asyncPset{}}
	for i := 0; i < c.Size(); i++ {
		w := c.WorldRank(i)
		pset := m.PsetOfRank(w)
		ps := sh.psets[pset]
		if ps == nil {
			ps = &asyncPset{
				idxOf:   map[int]int{},
				pipes:   map[int]*fabric.Pipe{},
				flights: map[int64]*asyncFlight{},
			}
			sh.psets[pset] = ps
		}
		ps.idxOf[i] = len(ps.ranks)
		ps.ranks = append(ps.ranks, i)
		ps.world = append(ps.world, w)
	}
	return sh
}

// asyncFlight is one checkpoint step's in-flight aggregation for one pset:
// snapshots accumulate until every member has arrived, then the agent
// flushes and fires done.
type asyncFlight struct {
	step       int64
	hdrCp      *Checkpoint // representative: step, sim time, field names
	chunkBytes []int64     // per member index
	fields     [][]data.Buf
	snapEnd    []float64
	lost       []string // per-member loss reason ("" = live)
	arrived    int
	done       *sim.Signal
	durable    float64 // when the flush landed on storage (0 if lost)
	queueSec   float64 // drain-queue residency past durable (bbuf fleets)
	err        error   // non-fault flush failure, surfaced by WaitDurable
}

type asyncPlan struct {
	cfg   Async
	group *mpi.Comm // this pset's members (collective restart reads)
	ps    *asyncPset
	pset  int
	idx   int // this rank's member index in ps

	pending []*asyncFlight // flights this rank contributed to, oldest first
	drained []FlushStats   // outcomes collected since the last WaitDurable
	snap    asyncSnap      // the rank's snapshot while it awaits it
}

// nodePipe returns the snapshot pipe of the calling rank's node, so a
// node's ranks contend for their shared memory bandwidth.
func (pl *asyncPlan) nodePipe(r *mpi.Rank) *fabric.Pipe {
	node := r.World().M.NodeOfRank(r.ID())
	pipe := pl.ps.pipes[node]
	if pipe == nil {
		pipe = fabric.NewPipe(fmt.Sprintf("snap/n%d", node), localLatency, localBW)
		pl.ps.pipes[node] = pipe
	}
	return pipe
}

// Write implements Plan: the blocking phase is the node-local snapshot,
// which runs as the rank's continuation (asyncSnap) past the backpressure.
func (pl *asyncPlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (Stats, error) {
	if _, err := cp.ChunkBytes(); err != nil {
		return Stats{}, err
	}
	start := r.Now()
	// Backpressure: only asyncSlots steps may be in background flight; past
	// that, Write blocks on the oldest flush like a sync strategy would.
	for len(pl.pending) >= asyncSlots {
		if err := pl.drainOldest(r); err != nil {
			return Stats{}, err
		}
	}
	sn := &pl.snap
	sn.pl, sn.env, sn.r, sn.cp, sn.start = pl, env, r, cp, start
	r.Proc().AwaitNow(sn)
	stats := sn.stats
	*sn = asyncSnap{}
	return stats, nil
}

// asyncSnap is a rank's node-local snapshot as its continuation
// (sim.Cont): the snapshot pipe's transfer and the flight bookkeeping run
// on the driver's stack, where they cannot grow the rank's. It lives in
// the rank's plan, so a step allocates nothing.
type asyncSnap struct {
	pl      *asyncPlan
	env     *Env
	r       *mpi.Rank
	cp      *Checkpoint
	start   float64 // Write's entry, before the backpressure
	copying bool    // the snapshot's transfer is under way
	stats   Stats
}

// Continue runs the snapshot in its slot, at the await and at the end of
// the transfer, and resumes the rank once the snapshot arrived.
func (sn *asyncSnap) Continue() bool {
	pl, env, r, cp := sn.pl, sn.env, sn.r, sn.cp
	p := r.Proc()
	if !sn.copying {
		if !env.Up(r.ID()) {
			// A dead rank snapshots nothing, but still "arrives" so the
			// pset's flight completes and the agent can fire; its chunk is
			// recorded lost at flush time.
			now := r.Now()
			pl.arrive(env, r, cp, now, "node down")
			sn.stats = Stats{Role: RoleAll, Start: now, End: now, Skipped: true, DeadRank: true}
			return true
		}
		_, end := pl.nodePipe(r).Transfer(r.Now(), cp.TotalBytes())
		if d := end - r.Now(); d > 0 && !p.SleepFast(d) {
			sn.copying = true
			p.UnparkAfter(d)
			return false
		}
	}
	start := sn.start
	if rec := p.Rec(); rec != nil {
		rec.Span(trace.LayerAsync, "async.snapshot", r.ID(), start, r.Now(), cp.TotalBytes())
	}
	env.log(r.ID(), iolog.OpWrite, start, r.Now(), cp.TotalBytes())
	fl := pl.arrive(env, r, cp, r.Now(), "")
	pl.pending = append(pl.pending, fl)
	now := r.Now()
	sn.stats = Stats{
		Role:      RoleAll,
		Start:     start,
		End:       now,
		Perceived: now - start,
		Bytes:     cp.TotalBytes(),
		Async:     true,
	}
	return true
}

// arrive records this rank's contribution to the step's flight; the last
// arrival spawns the pset's background aggregation agent.
func (pl *asyncPlan) arrive(env *Env, r *mpi.Rank, cp *Checkpoint, snapEnd float64, lostReason string) *asyncFlight {
	ps := pl.ps
	fl := ps.flights[cp.Step]
	if fl == nil {
		n := len(ps.ranks)
		fl = &asyncFlight{
			step:       cp.Step,
			hdrCp:      cp,
			chunkBytes: make([]int64, n),
			fields:     make([][]data.Buf, len(cp.Fields)),
			snapEnd:    make([]float64, n),
			lost:       make([]string, n),
			done:       &sim.Signal{},
		}
		for fi := range fl.fields {
			fl.fields[fi] = make([]data.Buf, n)
		}
		ps.flights[cp.Step] = fl
	}
	fl.snapEnd[pl.idx] = snapEnd
	if lostReason != "" {
		fl.lost[pl.idx] = lostReason
	} else {
		fl.chunkBytes[pl.idx] = cp.Fields[0].Data.Len()
		for fi := range cp.Fields {
			fl.fields[fi][pl.idx] = cp.Fields[fi].Data
		}
	}
	fl.arrived++
	if fl.arrived == len(ps.ranks) {
		delete(ps.flights, cp.Step)
		pl.spawnAgent(env, r, fl)
	}
	return fl
}

// spawnAgent starts the background flush for a completed flight, in the
// calling rank's partition so the flight state stays partition-confined.
func (pl *asyncPlan) spawnAgent(env *Env, r *mpi.Rank, fl *asyncFlight) {
	p := r.Proc()
	p.Kernel().GoPart(p.Part(), fmt.Sprintf("async.agent/ps%d.s%d", pl.pset, fl.step),
		func(fp *sim.Proc) {
			pl.flush(env, fp, fl)
			fl.done.Fire()
		})
}

// flush is the agent body: settle per-member liveness, commit the
// aggregated file through the shared storage stack, and seal (or tear) the
// epoch at the durable point.
func (pl *asyncPlan) flush(env *Env, fp *sim.Proc, fl *asyncFlight) {
	ps := pl.ps
	t0 := fp.Now()
	var total int64
	for i, w := range ps.world {
		// A member whose node died after snapshotting holds its only copy
		// in dead RAM: genuinely lost, exactly the staleness async trades
		// for its short blocked phase.
		if fl.lost[i] == "" && !env.Up(w) {
			fl.lost[i] = "node lost before flush"
		}
		if fl.lost[i] != "" {
			dropChunk(fl.chunkBytes, fl.fields, i)
			continue
		}
		total += fl.chunkBytes[i] * int64(len(fl.fields))
	}
	// The agent writes as the pset's first member, on the members' behalf:
	// one coalesced write per field holding every member's chunk.
	err := writeFile(env, "ckpt/async", fp, ps.world[0], asyncFile(env.Dir, fl.step, pl.pset),
		buildHeader(fl.hdrCp, fl.chunkBytes), fl.fields, 0)
	now := fp.Now()
	if err != nil {
		if !fsys.Unavailable(err) {
			fl.err = err
			return
		}
		// Dead storage: the step completes but nothing from this pset is
		// durable.
		for i := range ps.world {
			if fl.lost[i] == "" {
				fl.lost[i] = "storage unavailable"
			}
		}
	} else {
		fl.durable = now
		if di, ok := fsys.AsDrainInfo(env.FS); ok {
			// The storage acknowledged the commit, but on a burst-buffer
			// backend the bytes may still sit in fleet buffers: report how
			// far past the durable point the fleet's drain horizon reaches.
			if h := di.DrainHorizon(); h > now {
				fl.queueSec = h - now
			}
		}
	}
	for i, w := range ps.world {
		if fl.lost[i] != "" {
			env.epochLost(LevelGlobal, fl.step, w, fl.lost[i], now)
		} else {
			env.epochCommit(LevelGlobal, fl.step, w, len(fl.fields), now)
		}
	}
	if rec := fp.Rec(); rec != nil {
		rec.Span(trace.LayerAsync, "async.flush", pl.pset, t0, now, total)
	}
}

// drainOldest blocks on the oldest pending flight and banks its outcome.
func (pl *asyncPlan) drainOldest(r *mpi.Rank) error {
	fl := pl.pending[0]
	pl.pending = pl.pending[1:]
	fl.done.Wait(r.Proc())
	if fl.err != nil {
		return fl.err
	}
	fs := FlushStats{
		Step:     fl.step,
		SnapEnd:  fl.snapEnd[pl.idx],
		Durable:  fl.durable,
		QueueSec: fl.queueSec,
		Lost:     fl.lost[pl.idx] != "",
	}
	if fs.Lost {
		fs.Durable = 0
	}
	pl.drained = append(pl.drained, fs)
	return nil
}

// WaitDurable implements AsyncPlan: the drain barrier.
func (pl *asyncPlan) WaitDurable(env *Env, r *mpi.Rank) ([]FlushStats, error) {
	for len(pl.pending) > 0 {
		if err := pl.drainOldest(r); err != nil {
			return nil, err
		}
	}
	out := pl.drained
	pl.drained = nil
	return out, nil
}

// Read implements Plan: restart is collective within each pset's group, one
// aggregated file per pset.
func (pl *asyncPlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	return readChunkCollective(env, pl.group, r, pl.cfg.Hints, asyncFile(env.Dir, step, pl.pset), pl.group.Rank(r))
}

var _ AsyncPlan = (*asyncPlan)(nil)
