package ckpt

import (
	"fmt"
	"sort"

	"repro/internal/cemfmt"
	"repro/internal/data"
	"repro/internal/iolog"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
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

// Plan implements Strategy: split the communicator into nf groups.
func (s CoIO) Plan(c *mpi.Comm, r *mpi.Rank) (pl Plan, err error) {
	r.Proc().AwaitNow(s.planCont(c, r, &pl, &err))
	return pl, err
}

// planCont returns coIO's Plan as a continuation (see AwaitPlan).
func (s CoIO) planCont(c *mpi.Comm, r *mpi.Rank, plan *Plan, err *error) sim.Cont {
	return &coBuild{pl: &coPlan{c: c, r: r, hints: s.Hints}, nf: s.NumFiles, plan: plan, err: err}
}

// coBuild is coIO's Plan in flight: it splits pl.c into nf groups, one
// file each, and sets *plan or *err.
type coBuild struct {
	pl    *coPlan
	nf    int
	plan  *Plan
	err   *error
	split *mpi.SplitCall // the split in flight
}

// Continue implements sim.Cont.
func (b *coBuild) Continue() bool {
	pl := b.pl
	c, r := pl.c, pl.r
	np := c.Size()
	nf := min(max(b.nf, 1), np)
	groupSize := np / nf
	if b.split == nil {
		if np%nf != 0 {
			*b.err = indivisible("ckpt/coio: %d ranks not divisible into %d files", np, nf)
			return true
		}
		me := c.Rank(r)
		pl.groupIdx = me / groupSize
		b.split = c.StartSplit(r, int64(pl.groupIdx), int64(me))
	}
	if !b.split.Continue() {
		return false
	}
	pl.group = b.split.Comm()
	*b.plan = pl
	return true
}

type coPlan struct {
	c        *mpi.Comm
	r        *mpi.Rank
	group    *mpi.Comm
	groupIdx int
	hints    mpiio.Hints

	// The step in flight (see step): its checkpoint and where its outcome
	// goes, where it goes on, the wait in flight, the field being written
	// and the rank's chunk of it, the chunk size, when the step (and its
	// open) began, the chunk sizes' allgather, and the file's writer.
	env   *Env
	cp    *Checkpoint
	out   *Stats
	err   *error
	at    coStage
	sub   sim.Cont
	fi    int
	own   [1]data.Buf
	chunk int64
	start float64
	sizes *mpi.CollCall
	w     collWriter
}

// coStage is where a coIO step goes on once its wait in flight finished.
type coStage uint8

const (
	coOpen          coStage = iota // the group file's collective open starts
	coOpened                       // the open finished; the chunk sizes' allgather starts
	coSized                        // the sizes are known; the shared header is derived
	coHeader                       // group rank 0 writes the master header
	coHeaderWritten                // the header write finished
	coField                        // the next field's collective write starts, or the close
	coFieldDone                    // the field's write finished
	coClosed                       // the close finished
	coDone                         // the step ended
)

// Write implements Plan: it awaits the step at once.
func (pl *coPlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (st Stats, err error) {
	r.Proc().AwaitNow(pl.step(env, cp, &st, &err))
	return
}

// step returns the rank's checkpoint step as the continuation it awaits,
// which sets *out and *err once it finished: the group file's collective
// open, the header derived from the allgathered chunk sizes and written
// by group rank 0, one collective write per field through collWriter, and
// the collective close. The step's state lives in the plan, and every
// call into storage is the file system's own continuation.
func (pl *coPlan) step(env *Env, cp *Checkpoint, out *Stats, err *error) sim.Cont {
	*out, *err = Stats{}, nil
	pl.env, pl.cp, pl.out, pl.err, pl.at = env, cp, out, err, coOpen
	return pl
}

// Continue implements sim.Cont: it runs the step until it waits, and
// reports true once the step ended.
func (pl *coPlan) Continue() bool {
	for {
		if pl.sub != nil {
			if !pl.sub.Continue() {
				return false
			}
			pl.sub = nil
		}
		if pl.at == coDone {
			return true
		}
		pl.next()
	}
}

// next runs the step's next stage up to its next wait, which it leaves in
// pl.sub, or to the step's end.
func (pl *coPlan) next() {
	r, env, cp, w := pl.r, pl.env, pl.cp, &pl.w
	switch pl.at {
	case coOpen:
		chunk, err := cp.ChunkBytes()
		if err != nil {
			pl.fail(err)
			return
		}
		pl.chunk, pl.start = chunk, r.Now()
		path := groupFile(env.Dir, cp.Step, pl.groupIdx)
		*w = collWriter{env: env, path: path, first: pl.group.Rank(r)}
		pl.sub, pl.at = w.call.StartOpen(pl.group, r, env.FS, path, true, pl.hints), coOpened
	case coOpened:
		if err := w.call.Err(); err != nil {
			pl.fail(fmt.Errorf("ckpt/coio: %w", err))
			return
		}
		w.f = w.call.File()
		env.log(r.ID(), iolog.OpCreate, pl.start, r.Now(), 0)
		// Chunk sizes across the group define the layout.
		pl.sizes = pl.group.StartAllgatherInt64(r, pl.chunk)
		pl.sub, pl.at = pl.sizes, coSized
	case coSized:
		sizes := pl.sizes.Int64s()
		pl.sizes, pl.at = nil, coHeader
		if pl.group.NeedsSection() {
			pl.sub = r.Proc().Phase(func(*sim.Proc) { pl.shareHeader(sizes) })
			return
		}
		pl.shareHeader(sizes)
	case coHeader:
		pl.at, pl.fi = coField, 0
		if w.first == 0 {
			pl.sub, pl.at = w.startHeader(r), coHeaderWritten
		}
	case coHeaderWritten:
		if err := w.headerDone(r); err != nil {
			*pl.err = err
		}
		pl.at = coField
	case coField:
		if *pl.err != nil {
			pl.end()
			return
		}
		if pl.fi == len(cp.Fields) {
			pl.sub, pl.at = w.startClose(r), coClosed
			return
		}
		pl.own[0] = cp.Fields[pl.fi].Data
		pl.sub, pl.at = w.startField(r, pl.fi, pl.own[:]...), coFieldDone
	case coFieldDone:
		t, n, err := w.fieldDone(r)
		if err != nil {
			pl.fail(err)
			return
		}
		pl.logField(r, t, n)
		pl.fi++
		pl.at = coField
	case coClosed:
		if err := w.closeDone(r); err != nil {
			pl.fail(err)
			return
		}
		pl.seal()
	}
}

// shareHeader derives the header every rank of the group derives from
// the allgathered sizes, computed once.
func (pl *coPlan) shareHeader(sizes []int64) {
	pl.w.hdr = pl.group.Shared(pl.r, func() any { return buildHeader(pl.cp, sizes) }).(*cemfmt.Header)
}

// fail ends the step with err.
func (pl *coPlan) fail(err error) {
	*pl.err = err
	pl.end()
}

// end ends the step. The plan outlives the step; its payload need not.
func (pl *coPlan) end() {
	pl.at = coDone
	pl.env, pl.cp, pl.out, pl.err = nil, nil, nil, nil
	pl.w, pl.own = collWriter{}, [1]data.Buf{}
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

// seal seals the rank's epoch contribution once the group file closed,
// fills in the step's stats and ends the step.
func (pl *coPlan) seal() {
	r, env, cp := pl.r, pl.env, pl.cp
	end := r.Now()
	// coIO is not fault-aware: a dead rank ghosts through the collective,
	// but its data never really existed — its epoch contribution is lost,
	// not committed.
	if !env.Up(r.ID()) {
		env.epochLost(LevelGlobal, cp.Step, r.ID(), "node down", end)
	} else {
		env.epochCommit(LevelGlobal, cp.Step, r.ID(), len(cp.Fields), end)
	}
	*pl.out = Stats{
		Role:      RoleAll,
		Start:     pl.start,
		End:       end,
		Perceived: end - pl.start,
		Bytes:     cp.TotalBytes(),
		Durable:   end,
	}
	pl.end()
}

// Read implements Plan: the group restores collectively — one open, shared
// header, aggregated span reads.
func (pl *coPlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	return readChunkCollective(env, pl.group, r, pl.hints, groupFile(env.Dir, step, pl.groupIdx), pl.group.Rank(r))
}
