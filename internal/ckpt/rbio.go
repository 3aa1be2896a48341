package ckpt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cemfmt"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RbIO is the paper's reduced-blocking I/O strategy. Ranks are divided into
// groups of GroupSize; the first rank of each group is the group's dedicated
// writer, the rest are workers. At a checkpoint, each worker posts one
// non-blocking MPI_Isend per field to its writer and immediately returns to
// the application — its blocking time is the local send hand-off, measured
// in microseconds (Table I). The writer receives the group's data, reorders
// it by field, buffers it, and commits:
//
//   - SingleFile == false (nf = ng): each writer owns one file and commits
//     with independent writes (MPI_File_write_at over MPI_COMM_SELF in the
//     paper). With BufferFields (the default), the writer accumulates
//     consecutive field blocks in its buffer and flushes them as few large
//     contiguous writes — the paper's explanation for nf=ng outperforming
//     nf=1.
//   - SingleFile == true (nf = 1): the ng writers share one file and commit
//     each field with a collective write on the writers' communicator,
//     which forces a field-by-field commit cadence.
type RbIO struct {
	GroupSize int // np:ng ratio (64 in the paper's headline runs)
	// WriterBuffer is the writer's aggregation buffer capacity in bytes
	// (default 512 MiB — half of a BG/P node's 2 GiB shared by 4 ranks,
	// generously rounded for the dedicated writer).
	WriterBuffer int64
	// SingleFile selects nf=1 (collective writers) instead of nf=ng.
	SingleFile bool
	// BufferFields lets a writer hold several completed fields before
	// committing (only meaningful for nf=ng). Disabling it is the ablation
	// for the paper's buffering argument.
	BufferFields bool
	// Hints configure the collective write in SingleFile mode.
	Hints mpiio.Hints
}

// DefaultRbIO returns the paper's headline configuration: np:ng = 64:1,
// nf = ng, field buffering on.
func DefaultRbIO() RbIO {
	return RbIO{GroupSize: 64, WriterBuffer: 512 << 20, BufferFields: true}
}

// Name implements Strategy.
func (s RbIO) Name() string {
	if s.SingleFile {
		return fmt.Sprintf("rbIO(%d:1,nf=1)", s.GroupSize)
	}
	return fmt.Sprintf("rbIO(%d:1,nf=ng)", s.GroupSize)
}

// Plan implements Strategy: build the worker groups and the writers'
// communicator (NekCEM does this once, at presetup).
func (s RbIO) Plan(c *mpi.Comm, r *mpi.Rank) (pl Plan, err error) {
	r.Proc().AwaitNow(s.planCont(c, r, &pl, &err))
	return pl, err
}

// planCont returns rbIO's Plan as a continuation (see AwaitPlan).
func (s RbIO) planCont(c *mpi.Comm, r *mpi.Rank, plan *Plan, err *error) sim.Cont {
	return &rbBuild{pl: &rbPlan{cfg: s, c: c}, r: r, plan: plan, err: err}
}

// rbBuild is rbIO's Plan in flight: it splits pl.c into the worker groups
// and then the writers' communicator, and sets *plan or *err.
type rbBuild struct {
	pl    *rbPlan
	r     *mpi.Rank
	plan  *Plan
	err   *error
	split *mpi.SplitCall // the split in flight
}

// Continue implements sim.Cont.
func (b *rbBuild) Continue() bool {
	pl, r := b.pl, b.r
	c := pl.c
	me := c.Rank(r)
	if b.split == nil {
		np := c.Size()
		gs := min(max(pl.cfg.GroupSize, 1), np)
		if np%gs != 0 {
			*b.err = indivisible("ckpt/rbio: %d ranks not divisible into groups of %d", np, gs)
			return true
		}
		b.split = c.StartSplit(r, int64(me/gs), int64(me))
	}
	if !b.split.Continue() {
		return false
	}
	if pl.group == nil {
		pl.group = b.split.Comm()
		writerColor := int64(1)
		if pl.isWriter(r) {
			writerColor = 0
		}
		b.split = c.StartSplit(r, writerColor, int64(me))
		if !b.split.Continue() {
			return false
		}
	}
	writers := b.split.Comm()
	if pl.isWriter(r) {
		pl.wr = &rbWriter{writers: writers}
	}
	if pl.cfg.WriterBuffer <= 0 {
		pl.cfg.WriterBuffer = 512 << 20
	}
	*b.plan = pl
	return true
}

type rbPlan struct {
	cfg   RbIO // WriterBuffer defaulted
	c     *mpi.Comm
	group *mpi.Comm

	// The checkpoint in flight, for the hand-off (mpi.SendSeq) and the
	// aggregation (mpi.RecvSeq), which run as the rank's continuation.
	// perceived is a worker's blocking time so far.
	env       *Env
	cp        *Checkpoint
	perceived float64

	// wr is a writer's own state: set at plan time on a group's writer,
	// at its first write on a fault-aware group's re-elected one.
	wr *rbWriter
}

// rbWriter is what only a writer keeps: the writers' communicator, and
// its progress through receiving its group's chunks, field-major:
// fieldData[fi][w] with w == group rank.
type rbWriter struct {
	writers *mpi.Comm // nil on a re-elected writer

	chunkBytes []int64
	missing    []bool // fault-aware: peers given up on; nil otherwise
	fieldData  [][]data.Buf
	me         int     // the writer's group rank
	fi, w      int     // the receive in flight: field fi from group rank w
	timeout    float64 // each receive's deadline; negative for none
	err        error   // a chunk of the wrong size, which ends the receives
}

// groupIdx is the index of r's group, and of its file under nf=ng.
func (pl *rbPlan) groupIdx(r *mpi.Rank) int { return pl.c.Rank(r) / pl.group.Size() }

// isWriter reports whether r is its group's dedicated writer.
func (pl *rbPlan) isWriter(r *mpi.Rank) bool { return pl.group.Rank(r) == 0 }

// peerTimeout is how long a fault-aware nf=ng group waits on a peer
// before declaring it dead: a worker before it re-sends to a re-elected
// writer, and the writer per chunk it receives. It is comfortably above
// any same-checkpoint message latency in the model.
const peerTimeout = 1.0

// fieldTag builds the message tag for field fi of a step; steps are folded
// so tags stay below the MPI-IO collective tag spaces (1<<18 and up) while
// still separating the fields of adjacent checkpoints.
func fieldTag(step int64, fi int) int {
	return 100 + fi + 16*int(step%(1<<10))
}

// Write implements Plan.
func (pl *rbPlan) Write(env *Env, r *mpi.Rank, cp *Checkpoint) (Stats, error) {
	if _, err := cp.ChunkBytes(); err != nil {
		return Stats{}, err
	}
	writer, ft := pl.writer(env, r)
	switch me := pl.group.Rank(r); {
	case writer < 0:
		now := r.Now()
		role := RoleWorker
		if pl.isWriter(r) {
			role = RoleWriter
		}
		env.epochLost(LevelGlobal, cp.Step, r.ID(), "node down", now)
		return Stats{Role: role, Start: now, End: now, Skipped: true, DeadRank: true}, nil
	case me == writer:
		return pl.writeWriter(env, r, cp, me, ft)
	}
	var st Stats
	r.Proc().AwaitNow(pl.handoff(env, r, cp, writer, &st))
	return st, nil
}

// writeCont returns a worker's write as a continuation that fills *out
// (see AwaitWrite): its hand-off. A writer's write, and any step that
// fails or skips, blocks: nil.
func (pl *rbPlan) writeCont(env *Env, r *mpi.Rank, cp *Checkpoint, out *Stats) sim.Cont {
	if _, err := cp.ChunkBytes(); err != nil {
		return nil
	}
	writer, _ := pl.writer(env, r)
	if writer < 0 || pl.group.Rank(r) == writer {
		return nil
	}
	return pl.handoff(env, r, cp, writer, out)
}

// writer returns the group rank of the writer r's group writes through
// this step, -1 when r's own node is down, and whether the step is
// fault-aware. nf=ng groups are independent, so under faults a group skips
// dead members and elects the lowest-ranked surviving member as writer
// (each rank evaluates liveness at its own entry, so views can disagree
// across a failure edge — the writer's per-peer receive timeouts keep
// every disagreement deadlock-free, at worst costing a chunk recorded as
// missing). nf=1 cannot: the writers' communicator collectives are fixed
// at plan time, so under faults dead ranks ghost-participate through the
// plain path and the loss is accounted at the aggregate level.
func (pl *rbPlan) writer(env *Env, r *mpi.Rank) (writer int, ft bool) {
	if !env.FaultAware() || pl.cfg.SingleFile {
		return 0, false
	}
	if !env.Up(r.ID()) {
		return -1, true
	}
	gs := pl.group.Size()
	for writer < gs && !env.Up(pl.group.WorldRank(writer)) {
		writer++
	}
	return writer, true
}

// handoff returns a worker's write to the group rank writer as a
// continuation that fills *out: the rank ships its fields with
// non-blocking sends and returns, the essence of "reduced blocking". When
// the original writer (group rank 0) is dead and another was elected, the
// worker first burns a send-timeout window discovering it (the paper's
// Isend hand-off is fire-and-forget, so the failure only shows when the
// transport gives up on the dead node).
func (pl *rbPlan) handoff(env *Env, r *mpi.Rank, cp *Checkpoint, writer int, out *Stats) *rbHandoff {
	pl.perceived = 0
	return &rbHandoff{pl: pl, r: r, env: env, cp: cp, out: out, start: r.Now(), writer: writer}
}

// rbHandoff is a worker's write in flight (see handoff).
type rbHandoff struct {
	pl     *rbPlan
	r      *mpi.Rank
	env    *Env
	cp     *Checkpoint
	out    *Stats
	sends  sim.Cont // the fields' sends, once they started
	start  float64
	writer int
	waited bool // a re-elected writer's detection window is over
}

// Continue implements sim.Cont.
func (h *rbHandoff) Continue() bool {
	pl, r := h.pl, h.r
	if h.sends == nil {
		if h.writer != 0 && !h.waited {
			h.waited = true
			pl.perceived += peerTimeout
			if p := r.Proc(); !p.SleepFast(peerTimeout) {
				p.UnparkAfter(peerTimeout)
				return false
			}
		}
		// Isend, then Wait, per field: each completes at local hand-off,
		// microseconds.
		pl.env, pl.cp = h.env, h.cp
		h.sends = pl.group.StartIsendWaitSeq(r, h.writer, len(h.cp.Fields), pl)
	}
	if !h.sends.Continue() {
		return false
	}
	pl.env, pl.cp = nil, nil // the plan outlives the step; its payload need not
	*h.out = Stats{
		Role:      RoleWorker,
		Start:     h.start,
		End:       r.Now(),
		Perceived: pl.perceived,
		Bytes:     h.cp.TotalBytes(),
	}
	return true
}

// SendMsg implements mpi.SendSeq: the worker's send i ships field i.
func (pl *rbPlan) SendMsg(_ *mpi.Rank, i int) (int, data.Buf) {
	return fieldTag(pl.cp.Step, i), pl.cp.Fields[i].Data
}

// Sent implements mpi.SendSeq: it counts the field's hand-off into the
// worker's blocking time and records it.
func (pl *rbPlan) Sent(r *mpi.Rank, i int, start, local float64) {
	pl.perceived += local
	n := pl.cp.Fields[i].Data.Len()
	if rec := r.Proc().Rec(); rec != nil {
		rec.Span(trace.LayerCkpt, "rbio.handoff", r.ID(), start, r.Now(), n)
	}
	pl.env.log(r.ID(), iolog.OpSend, start, r.Now(), n)
}

// receive takes the group's chunks into fieldData, field-major, as one
// mpi.RecvSeq: the writer me holds its own chunks, and with missing set
// (fault-aware) it skips dead peers and gives each receive timeout
// seconds.
func (pl *rbPlan) receive(env *Env, r *mpi.Rank, cp *Checkpoint, me int, missing []bool, timeout float64) (chunkBytes []int64, fieldData [][]data.Buf, err error) {
	if pl.wr == nil {
		pl.wr = &rbWriter{}
	}
	g := pl.wr
	gs := pl.group.Size()
	*g = rbWriter{
		writers:    g.writers,
		chunkBytes: make([]int64, gs),
		missing:    missing,
		fieldData:  make([][]data.Buf, len(cp.Fields)),
		me:         me,
		fi:         -1,
		w:          gs,
		timeout:    timeout,
	}
	g.chunkBytes[me] = cp.Fields[0].Data.Len()
	pl.env, pl.cp = env, cp
	pl.group.RecvSeq(r, pl)
	pl.env, pl.cp = nil, nil
	chunkBytes, fieldData, err = g.chunkBytes, g.fieldData, g.err
	*g = rbWriter{writers: g.writers} // the commit holds the chunks only while it needs them
	return chunkBytes, fieldData, err
}

// NextRecv implements mpi.RecvSeq: the next chunk to receive, field by
// field and group rank by group rank. A fault-aware writer skips the peers
// it gave up on and the ones it knows are dead.
func (pl *rbPlan) NextRecv(*mpi.Rank) (src, tag int, timeout float64, ok bool) {
	g, cp := pl.wr, pl.cp
	if g.err != nil {
		return 0, 0, 0, false
	}
	gs := pl.group.Size()
	for {
		if g.w++; g.w >= gs {
			if g.fi++; g.fi == len(cp.Fields) {
				return 0, 0, 0, false
			}
			g.fieldData[g.fi] = make([]data.Buf, gs)
			g.fieldData[g.fi][g.me] = cp.Fields[g.fi].Data
			g.w = 0
		}
		if g.w == g.me {
			continue
		}
		if g.missing != nil {
			if g.missing[g.w] {
				continue
			}
			if !pl.env.Up(pl.group.WorldRank(g.w)) {
				// Known dead: no point waiting a timeout on it.
				g.missing[g.w] = true
				continue
			}
		}
		return g.w, fieldTag(cp.Step, g.fi), g.timeout, true
	}
}

// Recvd implements mpi.RecvSeq: it files the chunk, checking its size
// against the sender's first, or gives a fault-aware writer's peer up.
func (pl *rbPlan) Recvd(r *mpi.Rank, start float64, buf data.Buf, ok bool) {
	g := pl.wr
	if !ok {
		g.missing[g.w] = true
		return
	}
	pl.env.log(r.ID(), iolog.OpRecv, start, r.Now(), buf.Len())
	first := g.fi == 0
	if g.missing != nil {
		first = g.chunkBytes[g.w] == 0
	}
	if first {
		g.chunkBytes[g.w] = buf.Len()
	} else if buf.Len() != g.chunkBytes[g.w] {
		g.err = fmt.Errorf("ckpt/rbio: worker %d field %d sent %d bytes, want %d",
			g.w, g.fi, buf.Len(), g.chunkBytes[g.w])
		return
	}
	g.fieldData[g.fi][g.w] = buf
}

// writeWriter aggregates the group's data and commits it; me is its group
// rank. A fault-aware writer (ft: nf=ng under fault injection) records dead
// or unresponsive peers' chunks as missing rather than blocking forever on
// them.
func (pl *rbPlan) writeWriter(env *Env, r *mpi.Rank, cp *Checkpoint, me int, ft bool) (Stats, error) {
	start := r.Now()
	gs := pl.group.Size()
	var missing []bool
	timeout := -1.0
	if ft {
		if me != 0 {
			// Re-elected writer: the workers spend one detection window
			// discovering the original writer is dead before re-sending, so
			// an elected writer opening its receive windows immediately
			// would time out on the first live peer. It burns the same
			// window.
			r.Proc().Sleep(peerTimeout)
		}
		missing, timeout = make([]bool, gs), peerTimeout
	}

	chunkBytes, fieldData, err := pl.receive(env, r, cp, me, missing, timeout)
	if err != nil {
		return Stats{}, err
	}
	missingN := 0
	for w := range missing {
		if missing[w] {
			missingN++
			dropChunk(chunkBytes, fieldData, w)
		}
	}
	if pl.cfg.SingleFile {
		err = pl.commitShared(env, r, cp, chunkBytes, fieldData)
	} else {
		err = pl.commitIndependent(env, r, cp, chunkBytes, fieldData)
	}
	if ft && fsys.Unavailable(err) {
		// The group's servers are gone too: the step completes but nothing
		// from this group is durable.
		now := r.Now()
		for w := 0; w < gs; w++ {
			if env.Up(pl.group.WorldRank(w)) {
				env.epochLost(LevelGlobal, cp.Step, pl.group.WorldRank(w), "storage unavailable", now)
			}
		}
		return Stats{Role: RoleWriter, Start: start, End: now, Perceived: now - start,
			Failed: true, MissingChunks: missingN}, nil
	}
	if err != nil {
		return Stats{}, err
	}
	end := r.Now()
	// The writer seals the whole group: a worker's hand-off alone does not
	// make its data durable, so commits are issued here. A fault-aware
	// writer's missing chunk permanently tears the epoch; without fault
	// awareness (nf=1) a dead rank ghost-participates in the collective, so
	// a member whose node is down is recorded lost, not committed.
	for w := 0; w < gs; w++ {
		wr := pl.group.WorldRank(w)
		switch {
		case ft && missing[w]:
			env.epochLost(LevelGlobal, cp.Step, wr, "chunk missing", end)
		case !ft && !env.Up(wr):
			env.epochLost(LevelGlobal, cp.Step, wr, "node down", end)
		default:
			env.epochCommit(LevelGlobal, cp.Step, wr, len(cp.Fields), end)
		}
	}
	return Stats{
		Role:          RoleWriter,
		Start:         start,
		End:           end,
		Perceived:     end - start,
		Bytes:         cp.TotalBytes(), // own share; workers report theirs
		Durable:       end,
		MissingChunks: missingN,
	}, nil
}

// commitIndependent is the nf=ng path: the writer owns its file outright.
// With BufferFields it holds consecutive field blocks until WriterBuffer
// fills and flushes them as one large write — the nf=ng advantage.
func (pl *rbPlan) commitIndependent(env *Env, r *mpi.Rank, cp *Checkpoint, chunkBytes []int64, fieldData [][]data.Buf) error {
	var buffer int64
	if pl.cfg.BufferFields {
		buffer = pl.cfg.WriterBuffer
	}
	return writeFile(env, "ckpt/rbio", r.Proc(), r.ID(), groupFile(env.Dir, cp.Step, pl.groupIdx(r)),
		buildHeader(cp, chunkBytes), fieldData, buffer)
}

// commitShared is the nf=1 path: all writers share one file and commit it
// field by field through collWriter on the writers' communicator.
func (pl *rbPlan) commitShared(env *Env, r *mpi.Rank, cp *Checkpoint, chunkBytes []int64, fieldData [][]data.Buf) error {
	gs := pl.group.Size()
	np := pl.c.Size()
	// The shared-file layout needs every rank's chunk size: the writers
	// exchange their groups' chunk tables (an allgatherv of 8*gs bytes).
	enc := make([]byte, 8*len(chunkBytes))
	for i, cb := range chunkBytes {
		binary.LittleEndian.PutUint64(enc[8*i:], uint64(cb))
	}
	tables := pl.wr.writers.AllgatherBytes(r, enc)
	all := make([]int64, 0, np)
	for _, tb := range tables {
		for i := 0; i+8 <= len(tb); i += 8 {
			all = append(all, int64(binary.LittleEndian.Uint64(tb[i:])))
		}
	}
	if len(all) != np {
		return fmt.Errorf("ckpt/rbio: chunk tables cover %d ranks, want %d", len(all), np)
	}
	// All writers derive the same global header; compute it once.
	hdr := pl.wr.writers.Shared(r, func() any { return buildHeader(cp, all) }).(*cemfmt.Header)

	path := groupFile(env.Dir, cp.Step, 0)
	t0 := r.Now()
	f, err := mpiio.Open(pl.wr.writers, r, env.FS, path, true, pl.cfg.Hints)
	if err != nil {
		return fmt.Errorf("ckpt/rbio: %w", err)
	}
	env.log(r.ID(), iolog.OpCreate, t0, r.Now(), 0)

	w := collWriter{env: env, f: f, hdr: hdr, path: path, first: pl.groupIdx(r) * gs, run: make([]data.Buf, 0, gs+1)}
	if err := w.header(r); err != nil {
		return err
	}
	for fi := range cp.Fields {
		t, n, err := w.field(r, fi, fieldData[fi]...)
		if err != nil {
			return err
		}
		env.log(r.ID(), iolog.OpWrite, t, r.Now(), n)
	}
	return w.close(r)
}

// Read implements Plan: restart is collective within the communicator that
// shares each file — the whole job for nf=1, each worker group for nf=ng —
// so a 64K-rank restart performs ng opens instead of 64K.
func (pl *rbPlan) Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error) {
	if pl.cfg.SingleFile {
		return readChunkCollective(env, pl.c, r, pl.cfg.Hints, groupFile(env.Dir, step, 0), pl.c.Rank(r))
	}
	return readChunkCollective(env, pl.group, r, pl.cfg.Hints, groupFile(env.Dir, step, pl.groupIdx(r)), pl.group.Rank(r))
}
