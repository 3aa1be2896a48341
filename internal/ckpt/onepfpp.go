package ckpt

import (
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// OnePFPP is the traditional "1 POSIX file per processor" strategy: every
// rank creates its own output file in the shared checkpoint directory and
// writes its header and field blocks with plain (POSIX-like) calls. All np
// creates land in one directory, which is exactly the metadata storm the
// paper measures.
type OnePFPP struct{}

// Name implements Strategy.
func (OnePFPP) Name() string { return "1PFPP" }

// Plan implements Strategy. 1PFPP needs no communicator setup.
func (OnePFPP) Plan(c *mpi.Comm, r *mpi.Rank) (Plan, error) {
	return &onePlan{c: c}, nil
}

type onePlan struct {
	c *mpi.Comm

	// The step in flight (see step): the rank, its checkpoint and where
	// its outcome goes, when it began, the rank's chunks as the file's
	// fields, and the file's commit, once it started.
	r       *mpi.Rank
	env     *Env
	cp      *Checkpoint
	out     *Stats
	err     *error
	start   float64
	chunks  []data.Buf
	fields  [][]data.Buf
	w       fileWriter
	writing bool
}

// Write implements Plan: it awaits the step at once.
func (pl *onePlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (st Stats, err error) {
	r.Proc().AwaitNow(pl.step(env, r, cp, &st, &err))
	return st, err
}

// step returns the rank's checkpoint step as the continuation it awaits
// (see AwaitWrite), which sets *out and *err once it finished: the rank's
// file, committed by writeFile's continuation. The step's state lives in
// the plan.
func (pl *onePlan) step(env *Env, r *mpi.Rank, cp *Checkpoint, out *Stats, err *error) sim.Cont {
	*out, *err = Stats{}, nil
	pl.r, pl.env, pl.cp, pl.out, pl.err = r, env, cp, out, err
	return pl
}

// Continue implements sim.Cont: it starts the rank's file commit, runs it
// until it waits, and reports true once the step ended.
func (pl *onePlan) Continue() bool {
	r, env, cp := pl.r, pl.env, pl.cp
	if !pl.writing {
		chunk, err := cp.ChunkBytes()
		if err != nil {
			*pl.err = err
			pl.end()
			return true
		}
		pl.start = r.Now()
		if !env.Up(r.ID()) {
			env.epochLost(LevelGlobal, cp.Step, r.ID(), "node down", pl.start)
			*pl.out = Stats{Role: RoleAll, Start: pl.start, End: pl.start, Skipped: true, DeadRank: true}
			pl.end()
			return true
		}
		// The file is written by fields, as the paper describes: block
		// header plus this rank's single chunk, per field.
		if n := len(cp.Fields); len(pl.chunks) != n {
			pl.chunks, pl.fields = make([]data.Buf, n), make([][]data.Buf, n)
		}
		for fi, f := range cp.Fields {
			pl.chunks[fi] = f.Data
			pl.fields[fi] = pl.chunks[fi : fi+1]
		}
		pl.w.start(env, "ckpt/1pfpp", r.Proc(), r.ID(), rankFile(env.Dir, cp.Step, pl.c.Rank(r)),
			buildHeader(cp, []int64{chunk}), pl.fields, 0)
		pl.writing = true
	}
	if !pl.w.Continue() {
		return false
	}
	if err := pl.w.err; err != nil {
		// Storage unavailability is an outcome of the step (the checkpoint
		// is lost), not a simulation failure: report it in Stats and let
		// the run continue.
		if !fsys.Unavailable(err) {
			*pl.err = err
			pl.end()
			return true
		}
		now := r.Now()
		env.epochLost(LevelGlobal, cp.Step, r.ID(), "storage unavailable", now)
		*pl.out = Stats{Role: RoleAll, Start: pl.start, End: now, Perceived: now - pl.start, Failed: true}
		pl.end()
		return true
	}
	end := r.Now()
	env.epochCommit(LevelGlobal, cp.Step, r.ID(), len(cp.Fields), end)
	*pl.out = Stats{
		Role:      RoleAll,
		Start:     pl.start,
		End:       end,
		Perceived: end - pl.start,
		Bytes:     cp.TotalBytes(),
		Durable:   end,
	}
	pl.end()
	return true
}

// end ends the step. The plan outlives the step; its payload need not.
func (pl *onePlan) end() {
	pl.r, pl.env, pl.cp, pl.out, pl.err = nil, nil, nil, nil, nil
	clear(pl.chunks)
	clear(pl.fields)
	pl.w, pl.writing = fileWriter{run: pl.w.run[:0]}, false
}

// Read implements Plan: each rank reopens its own file.
func (pl *onePlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	return readChunk(env, r, rankFile(env.Dir, step, pl.c.Rank(r)))
}
