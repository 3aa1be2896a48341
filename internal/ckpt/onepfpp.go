package ckpt

import (
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/mpi"
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
}

// Write implements Plan.
func (pl *onePlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (Stats, error) {
	chunk, err := cp.ChunkBytes()
	if err != nil {
		return Stats{}, err
	}
	start := r.Now()
	if !env.Up(r.ID()) {
		env.epochLost(LevelGlobal, cp.Step, r.ID(), "node down", start)
		return Stats{Role: RoleAll, Start: start, End: start, Skipped: true, DeadRank: true}, nil
	}
	// The file is written by fields, as the paper describes: block header
	// plus this rank's single chunk, per field.
	chunks, fields := make([]data.Buf, len(cp.Fields)), make([][]data.Buf, len(cp.Fields))
	for fi, f := range cp.Fields {
		chunks[fi] = f.Data
		fields[fi] = chunks[fi : fi+1]
	}
	if err := writeFile(env, "ckpt/1pfpp", r.Proc(), r.ID(), rankFile(env.Dir, cp.Step, pl.c.Rank(r)),
		buildHeader(cp, []int64{chunk}), fields, 0); err != nil {
		// Storage unavailability is an outcome of the step (the checkpoint
		// is lost), not a simulation failure: report it in Stats and let
		// the run continue.
		if !fsys.Unavailable(err) {
			return Stats{}, err
		}
		now := r.Now()
		env.epochLost(LevelGlobal, cp.Step, r.ID(), "storage unavailable", now)
		return Stats{Role: RoleAll, Start: start, End: now, Perceived: now - start, Failed: true}, nil
	}

	end := r.Now()
	env.epochCommit(LevelGlobal, cp.Step, r.ID(), len(cp.Fields), end)
	return Stats{
		Role:      RoleAll,
		Start:     start,
		End:       end,
		Perceived: end - start,
		Bytes:     cp.TotalBytes(),
		Durable:   end,
	}, nil
}

// Read implements Plan: each rank reopens its own file.
func (pl *onePlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	return readChunk(env, r, rankFile(env.Dir, step, pl.c.Rank(r)))
}
