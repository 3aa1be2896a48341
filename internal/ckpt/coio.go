package ckpt

import (
	"fmt"

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
}

// Write implements Plan. Each phase runs in a method of a coStep on
// Write's stack, so the frames parked under the collective writes stay
// small (see DESIGN.md §5).
func (pl *coPlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (st Stats, err error) {
	s := coStep{pl: pl, env: env, cp: cp}
	if err = s.open(r); err != nil {
		return
	}
	for fi := range cp.Fields {
		if err = s.field(r, fi); err != nil {
			return
		}
	}
	err = s.close(r, &st)
	return
}

// coStep is one rank's coIO checkpoint step in flight.
type coStep struct {
	pl    *coPlan
	env   *Env
	cp    *Checkpoint
	start float64
	me    int // group rank
	path  string
	f     *mpiio.File
	hdr   *cemfmt.Header
	isAgg bool // the rank aggregates for the collective writes
}

// open creates the group file, derives the shared header from the
// allgathered chunk sizes, and has group rank 0 write it.
func (s *coStep) open(r *mpi.Rank) error {
	pl, env, cp := s.pl, s.env, s.cp
	chunk, err := cp.ChunkBytes()
	if err != nil {
		return err
	}
	s.start = r.Now()
	s.me = pl.group.Rank(r)
	s.path = groupFile(env.Dir, cp.Step, pl.groupIdx)

	t0 := r.Now()
	s.f, err = mpiio.Open(pl.group, r, env.FS, s.path, true, pl.hints)
	if err != nil {
		return fmt.Errorf("ckpt/coio: %w", err)
	}
	env.log(r.ID(), iolog.OpCreate, t0, r.Now(), 0)

	// Chunk sizes across the group define the layout. Every rank derives
	// the same header from the allgathered sizes; compute it once.
	sizes := pl.group.AllgatherInt64(r, chunk)
	s.hdr = pl.group.Shared(r, func() any { return buildHeader(cp, sizes) }).(*cemfmt.Header)

	// Group rank 0 writes the master header independently (small).
	if s.me == 0 {
		t1 := r.Now()
		if err := s.f.WriteAt(r, 0, data.FromBytes(s.hdr.Marshal())); err != nil {
			return err
		}
		env.log(r.ID(), iolog.OpWrite, t1, r.Now(), s.hdr.HeaderSize())
	}
	for _, a := range s.f.Aggregators() {
		if a == s.me {
			s.isAgg = true
			break
		}
	}
	return nil
}

// field commits field fi with one collective write (paper, Section V-B):
// all processors commit data by fields. Rank 0's contribution carries the
// field's block header, which directly precedes its chunk. The write runs
// as its split halves, so a rank waits in the end's barrier without
// WriteAtAll's frame.
func (s *coStep) field(r *mpi.Rank, fi int) error {
	off, payload := s.payload(fi)
	t := r.Now()
	if err := s.f.WriteAtAllBegin(r, off, payload); err != nil {
		return err
	}
	if err := s.f.WriteAtAllEnd(r); err != nil {
		return err
	}
	s.logField(r, off, payload.Len(), t)
	return nil
}

// payload returns the rank's contribution to field fi and its offset. It
// returns before the write, so its frame is not parked with field's. Only
// rank 0's chunk, which carries the block header, is copied.
func (s *coStep) payload(fi int) (int64, data.Buf) {
	var parts [2]data.Buf
	run, off := appendBlock(parts[:0], s.hdr, fi, s.me, s.cp.Fields[fi].Data)
	if len(run) == 1 {
		return off, run[0]
	}
	return off, data.Concat(run...)
}

// logField records a committed field of n bytes at off, written from t. For
// the Darshan-style log, only the aggregators perform file system writes —
// the other ranks' time is the exchange phase.
func (s *coStep) logField(r *mpi.Rank, off, n int64, t float64) {
	env := s.env
	env.epochBlock(LevelGlobal, s.cp.Step, r.ID(), s.path, off, n, r.Now())
	if s.isAgg {
		// An aggregator commits its whole file domain, not just its own
		// contribution.
		env.log(r.ID(), iolog.OpWrite, t, r.Now(), s.hdr.FieldBytes()/int64(len(s.f.Aggregators())))
	} else {
		env.log(r.ID(), iolog.OpExchange, t, r.Now(), n)
	}
}

// close closes the group file, seals the rank's epoch contribution and
// fills in the step's stats.
func (s *coStep) close(r *mpi.Rank, st *Stats) error {
	env, cp := s.env, s.cp
	t3 := r.Now()
	if err := s.f.Close(r); err != nil {
		return err
	}
	env.log(r.ID(), iolog.OpClose, t3, r.Now(), 0)

	end := r.Now()
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
		Start:     s.start,
		End:       end,
		Perceived: end - s.start,
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
