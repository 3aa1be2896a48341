package ckpt

import (
	"fmt"
	"sort"

	"repro/internal/cemfmt"
	"repro/internal/data"
	"repro/internal/iolog"
	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// CoIO is the tuned MPI-IO collective strategy. The np ranks are divided
// evenly into nf groups (split collective); each group collectively writes
// one shared file with ROMIO-style two-phase buffering, committing the data
// field by field — every rank of a group is blocked until its group's
// collective completes.
//
// NumFiles = 1 reproduces the paper's "coIO, nf=1" configuration (all of
// MPI_COMM_WORLD writes one file); NumFiles = np/64 reproduces
// "coIO, np:nf = 64:1".
type CoIO struct {
	NumFiles int         // nf; clamped to [1, np]
	Hints    mpiio.Hints // MPI-IO hints (aggregator ratio, alignment, cb buffer)
}

// Name implements Strategy.
func (s CoIO) Name() string {
	if s.NumFiles == 1 {
		return "coIO(nf=1)"
	}
	return fmt.Sprintf("coIO(nf=%d)", s.NumFiles)
}

// Plan implements Strategy: split the communicator into nf groups. It is
// a shim inlined into the interface call's pointer wrapper, so a phase
// parked in build's split carries one frame for both.
func (s CoIO) Plan(c *mpi.Comm, r *mpi.Rank) (Plan, error) {
	return (&coPlan{c: c, hints: s.Hints}).build(r, s.NumFiles)
}

// build splits pl.c into nf groups, one file each.
func (pl *coPlan) build(r *mpi.Rank, nf int) (Plan, error) {
	c := pl.c
	np := c.Size()
	nf = min(max(nf, 1), np)
	if np%nf != 0 {
		return nil, indivisible("ckpt/coio: %d ranks not divisible into %d files", np, nf)
	}
	groupSize := np / nf
	me := c.Rank(r)
	pl.group = c.Split(r, int64(me/groupSize), int64(me))
	pl.groupIdx = me / groupSize
	return pl, nil
}

type coPlan struct {
	c        *mpi.Comm
	group    *mpi.Comm
	groupIdx int
	hints    mpiio.Hints

	// The step in flight: when it began, its file's writer, and the rank's
	// chunk of the field being written (off Write's frame and the heap).
	start float64
	w     collWriter
	own   [1]data.Buf
}

// Write implements Plan. The step's state lives in the plan and each phase
// runs in a method, so the frames parked under the collective writes stay
// small (see DESIGN.md §5).
func (pl *coPlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (st Stats, err error) {
	if err = pl.open(env, r, cp); err != nil {
		return
	}
	for fi := range cp.Fields {
		pl.own[0] = cp.Fields[fi].Data
		t, n, err := pl.w.field(r, fi, pl.own[:]...)
		if err != nil {
			return st, err
		}
		pl.logField(r, t, n)
	}
	err = pl.close(r, cp, &st)
	return
}

// open creates the group file, derives the shared header from the
// allgathered chunk sizes, and has group rank 0 write it.
func (pl *coPlan) open(env *Env, r *mpi.Rank, cp *Checkpoint) error {
	chunk, err := cp.ChunkBytes()
	if err != nil {
		return err
	}
	pl.start = r.Now()
	path := groupFile(env.Dir, cp.Step, pl.groupIdx)
	t0 := r.Now()
	f, err := mpiio.Open(pl.group, r, env.FS, path, true, pl.hints)
	if err != nil {
		return fmt.Errorf("ckpt/coio: %w", err)
	}
	env.log(r.ID(), iolog.OpCreate, t0, r.Now(), 0)

	// Chunk sizes across the group define the layout. Every rank derives
	// the same header from the allgathered sizes; compute it once.
	sizes := pl.group.AllgatherInt64(r, chunk)
	hdr := pl.group.Shared(r, func() any { return buildHeader(cp, sizes) }).(*cemfmt.Header)

	pl.w = collWriter{env: env, f: f, hdr: hdr, path: path, first: pl.group.Rank(r)}
	return pl.w.header(r)
}

// logField records a committed field: n bytes, written from t. For the
// Darshan-style log, only the aggregators perform file system writes — the
// other ranks' time is the exchange phase.
func (pl *coPlan) logField(r *mpi.Rank, t float64, n int64) {
	w := &pl.w
	aggs := w.f.Aggregators() // sorted; w.first is the rank's group rank
	if i := sort.SearchInts(aggs, w.first); i < len(aggs) && aggs[i] == w.first {
		// An aggregator commits its whole file domain, not just its own
		// contribution.
		w.env.log(r.ID(), iolog.OpWrite, t, r.Now(), w.hdr.FieldBytes()/int64(len(aggs)))
	} else {
		w.env.log(r.ID(), iolog.OpExchange, t, r.Now(), n)
	}
}

// close closes the group file, seals the rank's epoch contribution and
// fills in the step's stats.
func (pl *coPlan) close(r *mpi.Rank, cp *Checkpoint, st *Stats) error {
	w := pl.w
	pl.w, pl.own = collWriter{}, [1]data.Buf{} // the plan outlives the step; its payload need not
	if err := w.close(r); err != nil {
		return err
	}
	env, end := w.env, r.Now()
	// coIO is not fault-aware: a dead rank ghosts through the collective,
	// but its data never really existed — its epoch contribution is lost,
	// not committed.
	if !env.Up(r.ID()) {
		env.epochLost(LevelGlobal, cp.Step, r.ID(), "node down", end)
	} else {
		env.epochCommit(LevelGlobal, cp.Step, r.ID(), len(cp.Fields), end)
	}
	*st = Stats{
		Role:      RoleAll,
		Start:     pl.start,
		End:       end,
		Perceived: end - pl.start,
		Bytes:     cp.TotalBytes(),
		Durable:   end,
	}
	return nil
}

// Read implements Plan: the group restores collectively — one open, shared
// header, aggregated span reads.
func (pl *coPlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	return readChunkCollective(env, pl.group, r, pl.hints, groupFile(env.Dir, step, pl.groupIdx), pl.group.Rank(r))
}
