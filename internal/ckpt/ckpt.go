// Package ckpt implements the paper's application-level checkpointing I/O
// strategies over the simulated machine:
//
//   - OnePFPP — "1 POSIX file per processor": every rank creates and writes
//     its own file (np files in one directory).
//   - CoIO — tuned MPI-IO collective writes: the ranks are split into nf
//     groups, each group writes one shared file with two-phase collective
//     buffering, committing field by field.
//   - RbIO — the paper's contribution, "reduced-blocking I/O": groups of
//     GroupSize ranks each dedicate their first rank as a writer; the other
//     ranks (workers) MPI_Isend their six field arrays to the writer and
//     return immediately. The writer aggregates, reorders by field, buffers,
//     and commits either to its own file (nf = ng, independent
//     MPI_File_write_at) or collectively with the other writers to a single
//     shared file (nf = 1).
//
// Strategies are planned once (communicator setup, like NekCEM's presetup)
// and then invoked per checkpoint step. Every strategy writes the cemfmt
// file layout, so any checkpoint can be restarted with Plan.Read and — in
// content mode — verified bit-for-bit.
package ckpt

import (
	"fmt"

	"repro/internal/cemfmt"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
)

// App is the application name stamped into checkpoint headers.
const App = "NekCEM"

// Field is one named per-rank data array of a checkpoint.
type Field struct {
	Name string
	Data data.Buf
}

// Checkpoint is the coordinated local state a rank contributes to one
// checkpoint step. All fields of a rank must have equal byte size (NekCEM
// fields are all n/P grid-point arrays), and every rank must present the
// same field names in the same order.
type Checkpoint struct {
	Step    int64
	SimTime float64
	Fields  []Field
}

// ChunkBytes returns the per-field byte size of this rank's contribution,
// validating the equal-size invariant.
func (cp *Checkpoint) ChunkBytes() (int64, error) {
	if len(cp.Fields) == 0 {
		return 0, fmt.Errorf("ckpt: checkpoint has no fields")
	}
	n := cp.Fields[0].Data.Len()
	for _, f := range cp.Fields[1:] {
		if f.Data.Len() != n {
			return 0, fmt.Errorf("ckpt: field %q has %d bytes, want %d (all fields must match)",
				f.Name, f.Data.Len(), n)
		}
	}
	return n, nil
}

// TotalBytes returns the rank's total contribution across fields.
func (cp *Checkpoint) TotalBytes() int64 {
	var t int64
	for _, f := range cp.Fields {
		t += f.Data.Len()
	}
	return t
}

func (cp *Checkpoint) fieldNames() []string {
	names := make([]string, len(cp.Fields))
	for i, f := range cp.Fields {
		names[i] = f.Name
	}
	return names
}

// Role describes what a rank did during a checkpoint step.
type Role int

// Roles.
const (
	RoleAll    Role = iota // every rank does I/O (1PFPP, coIO)
	RoleWorker             // rbIO worker: ships data and returns
	RoleWriter             // rbIO writer: aggregates and commits
)

func (ro Role) String() string {
	switch ro {
	case RoleAll:
		return "all"
	case RoleWorker:
		return "worker"
	case RoleWriter:
		return "writer"
	}
	return fmt.Sprintf("Role(%d)", int(ro))
}

// Stats describes one rank's view of one checkpoint step.
type Stats struct {
	Role  Role
	Start float64 // when the rank entered the checkpoint call
	End   float64 // when the rank returned to the application
	// Perceived is the time the rank's data hand-off occupied it. For rbIO
	// workers this is the summed MPI_Isend local completion time (Table I's
	// perceived write speed); for blocking strategies it equals End-Start.
	Perceived float64
	Bytes     int64 // bytes this rank contributed
	// Durable is when this rank's portion was committed to storage (writers
	// and direct writers; zero for rbIO workers, whose data becomes durable
	// on their writer's clock).
	Durable float64

	// Fault-injection outcomes (all zero without injected faults).
	Skipped  bool // the rank's node was down; it did no checkpoint I/O
	DeadRank bool // the rank's node was down during the step
	// Failed reports that the rank's storage commits exhausted the retry
	// budget: the step completed but this rank's data is not durable.
	Failed bool
	// MissingChunks is, on an rbIO writer, how many group members' chunks
	// never arrived (dead or timed-out peers) and were recorded as lost.
	MissingChunks int

	// Async reports that Write returned before the rank's data was durable:
	// Durable is zero here and the flush outcome arrives later through
	// AsyncPlan.WaitDurable. Blocked() is then only the snapshot phase; the
	// background flush time lives in the matching FlushStats.
	Async bool
}

// Blocked returns how long the application was blocked on this rank.
func (s Stats) Blocked() float64 { return s.End - s.Start }

// Env carries the I/O environment a strategy writes into.
type Env struct {
	FS  fsys.System
	Dir string
	Log *iolog.Log // optional op log for the Darshan-style analyses

	// RankUp reports whether a world rank's compute node is currently up.
	// nil means no fault injection: every rank is up and strategies take
	// their exact fault-unaware code paths.
	RankUp func(worldRank int) bool
	// Epochs, when non-nil, receives two-phase epoch commit records (data
	// blocks, per-rank commits, known losses) from every checkpoint step.
	// Reporting is free in simulated time and draws no random numbers.
	Epochs EpochSink
}

// FaultAware reports whether fault injection is active for this run.
func (e *Env) FaultAware() bool { return e.RankUp != nil }

// Up reports whether a world rank's node is up (always true without fault
// injection).
func (e *Env) Up(worldRank int) bool {
	return e.RankUp == nil || e.RankUp(worldRank)
}

func (e *Env) log(rank int, op iolog.Op, start, end float64, bytes int64) {
	e.Log.Add(iolog.Record{Rank: rank, Op: op, Start: start, End: end, Bytes: bytes})
}

// indivisible reports a rank count a strategy cannot lay out.
func indivisible(format string, np, n int) error { return fmt.Errorf(format, np, n) }

// Strategy is a checkpointing I/O approach. Plan is collective over the
// communicator and must be called once by every rank before the first
// checkpoint (communicator setup happens here, as in NekCEM's presetup).
type Strategy interface {
	Name() string
	Plan(c *mpi.Comm, r *mpi.Rank) (Plan, error)
}

// Plan is a rank's prepared checkpointing pipeline.
//
// The lifecycle has two phases. The blocking snapshot phase is Write: for
// the synchronous strategies it carries the data all the way to durable
// storage; an asynchronous strategy may return as soon as the rank's data
// is staged (Stats.Async set, Stats.Durable zero). The optional flush
// phase is AsyncPlan: callers that care about durability — the solver
// loop, the recovery driver — drain it with WaitDurable before trusting
// the step.
type Plan interface {
	// Write performs one coordinated checkpoint step. It blocks the rank
	// for exactly as long as the application would be blocked: through
	// durability for synchronous strategies, only through the local
	// snapshot for asynchronous ones.
	Write(env *Env, r *mpi.Rank, cp *Checkpoint) (Stats, error)
	// Read restores this rank's chunk of the checkpoint written at the
	// given step. Field payloads are real if the file holds content,
	// synthetic (correct sizes) for paper-scale runs.
	Read(env *Env, r *mpi.Rank, step int64) (*Checkpoint, error)
}

// AwaitPlan returns s.Plan(c, r) as the continuation r's body awaits
// (sim.Proc.Then), which sets *plan and *err once it finished. 1PFPP,
// rbIO and coIO plan on the driver's stack; every other strategy runs its
// blocking Plan in a phase it borrows (sim.Proc.Phase).
func AwaitPlan(s Strategy, c *mpi.Comm, r *mpi.Rank, plan *Plan, err *error) sim.Cont {
	switch s := s.(type) {
	case OnePFPP:
		*plan, *err = s.Plan(c, r)
		return ready{}
	case RbIO:
		return s.planCont(c, r, plan, err)
	case CoIO:
		return s.planCont(c, r, plan, err)
	}
	return r.Proc().Phase(func(*sim.Proc) { *plan, *err = s.Plan(c, r) })
}

// ready is a continuation that has finished: what a call that never
// waits returns for its caller to await.
type ready struct{}

func (ready) Continue() bool { return true }

// AwaitWrite returns pl.Write(env, r, cp) as the continuation r's body
// awaits, which sets *stats and *err once it finished. A 1PFPP rank's
// step, an rbIO worker's hand-off and a coIO rank's step run on the
// driver's stack; every other write runs in a phase it borrows.
func AwaitWrite(pl Plan, env *Env, r *mpi.Rank, cp *Checkpoint, stats *Stats, err *error) sim.Cont {
	switch pl := pl.(type) {
	case *onePlan:
		return pl.step(env, r, cp, stats, err)
	case *rbPlan:
		if c := pl.writeCont(env, r, cp, stats); c != nil {
			return c
		}
	case *coPlan:
		return pl.step(env, cp, stats, err)
	}
	return r.Proc().Phase(func(*sim.Proc) { *stats, *err = pl.Write(env, r, cp) })
}

// FlushStats is one step's background-flush outcome for one rank, returned
// by AsyncPlan.WaitDurable. It is the deferred half of the Stats the rank
// got back from Write: where Stats measures the blocked snapshot phase,
// FlushStats measures the time-to-durability that elapsed behind the
// solver's back.
type FlushStats struct {
	Step    int64
	SnapEnd float64 // when the rank's blocking snapshot phase ended
	Durable float64 // when the flush landed on storage (0 if lost)
	// QueueSec is the drain-queue residency behind the durable point: when
	// the flush lands on a backend with a background drain tier (the
	// burst-buffer fleet), the commit that storage acknowledged may still
	// sit in fleet buffers awaiting drain, and QueueSec is how far past
	// Durable the fleet's drain horizon extended at that moment. Zero on
	// backends without a drain tier.
	QueueSec float64
	// Lost reports the snapshot never became durable: the rank's node died
	// holding it, or the storage refused the aggregated commit.
	Lost bool
}

// FlushSec returns the background flush time: how long after the rank
// resumed computing its data stayed in flight (0 for a lost flush).
func (f FlushStats) FlushSec() float64 {
	if f.Lost || f.Durable <= f.SnapEnd {
		return 0
	}
	return f.Durable - f.SnapEnd
}

// AsyncPlan is the optional asynchronous extension of Plan. A strategy
// whose Write returns before durability implements it; WaitDurable is the
// drain barrier that closes the lifecycle.
type AsyncPlan interface {
	Plan
	// WaitDurable blocks the calling rank until every snapshot it has
	// contributed since the last call is durable or known lost, and
	// returns one FlushStats per drained step, oldest first. The rank's
	// clock on return is its drain tail: max(flush completion) across its
	// outstanding steps.
	WaitDurable(env *Env, r *mpi.Rank) ([]FlushStats, error)
}

// rankFile names the 1PFPP output of one rank.
func rankFile(dir string, step int64, rank int) string {
	return fmt.Sprintf("%s/step%06d.p%06d.nek", dir, step, rank)
}

// groupFile names the output of file-group g.
func groupFile(dir string, step int64, g int) string {
	return fmt.Sprintf("%s/step%06d.f%05d.nek", dir, step, g)
}

// buildHeader assembles the master header for a file holding the given
// chunk sizes, frozen: writers in several psets share it.
func buildHeader(cp *Checkpoint, chunkBytes []int64) *cemfmt.Header {
	h := &cemfmt.Header{
		App:        App,
		Step:       cp.Step,
		SimTime:    cp.SimTime,
		Fields:     cp.fieldNames(),
		ChunkBytes: chunkBytes,
	}
	return h.Freeze()
}

// appendBlock appends field fi's part of a file, from chunk first on, to
// run and returns the offset that part starts at: chunk 0 carries the
// field's block header and lands at the field's offset, any other first
// chunk lands at its own offset. The caller concatenates run once per
// write, so a buffered run copies its bytes once.
func appendBlock(run []data.Buf, hdr *cemfmt.Header, fi, first int, chunks ...data.Buf) ([]data.Buf, int64) {
	if first != 0 {
		return append(run, chunks...), hdr.ChunkOffset(fi, first)
	}
	run = append(run, data.FromBytes(cemfmt.BlockHeader(hdr.Fields[fi], hdr.FieldBytes())))
	return append(run, chunks...), hdr.FieldOffset(fi)
}

// dropChunk records member w's chunk as lost: zero-length in the header, so
// the file stays structurally valid and restart knows exactly which ranks
// lost their state.
func dropChunk(chunkBytes []int64, fields [][]data.Buf, w int) {
	chunkBytes[w] = 0
	for fi := range fields {
		fields[fi][w] = data.Buf{}
	}
}

// writeFile is the independent commit of a whole file, as rank on p: it
// creates path, writes the master header hdr, then each field's block
// header and chunks (fields[fi], in chunk order), and closes. Every op goes
// to the op log and every field block to the epoch sink. Consecutive field
// blocks are contiguous in the file, so they may share a write: blocks
// accumulate until buffer bytes are held (0: one write per field). who
// prefixes a create error. It awaits the commit (fileWriter) at once.
func writeFile(env *Env, who string, p *sim.Proc, rank int, path string, hdr *cemfmt.Header, fields [][]data.Buf, buffer int64) error {
	w := &fileWriter{}
	w.start(env, who, p, rank, path, hdr, fields, buffer)
	p.AwaitNow(w)
	return w.err
}

// fileWriter is writeFile in flight, as the continuation its writer
// awaits: the create, the header, the field runs and the close, each the
// file system's own continuation (fsys.System.StartCreate and the
// handle's StartWriteAt and StartClose), so a writer that awaits it from
// its body holds no coroutine. A caller may keep one and start its
// commits in it one after another.
type fileWriter struct {
	env    *Env
	who    string
	p      *sim.Proc
	rank   int
	path   string
	hdr    *cemfmt.Header
	fields [][]data.Buf
	buffer int64

	at  fwStage
	sub sim.Cont // the file op in flight
	h   fsys.Handle
	err error

	// The op in flight's start and bytes, the next field, and the run of
	// field blocks held: its parts, its offset and its size.
	t        float64
	n        int64
	fi       int
	run      []data.Buf
	runStart int64
	buffered int64
}

// fwStage is where a fileWriter goes on once its file op in flight ended.
type fwStage uint8

const (
	fwCreate  fwStage = iota // the create starts
	fwCreated                // the create ended; the header write starts
	fwHeader                 // the header write ended
	fwField                  // the next field joins the run, which may be written
	fwWrote                  // a run's write ended
	fwBlock                  // a field's epoch block is recorded, or the close starts
	fwClosed                 // the close ended
	fwDone                   // the commit ended
)

// start begins the commit in w; see writeFile.
func (w *fileWriter) start(env *Env, who string, p *sim.Proc, rank int, path string, hdr *cemfmt.Header, fields [][]data.Buf, buffer int64) {
	*w = fileWriter{env: env, who: who, p: p, rank: rank, path: path, hdr: hdr, fields: fields, buffer: buffer, at: fwCreate, run: w.run[:0]}
}

// Continue implements sim.Cont: it runs the commit until a file op waits,
// and reports true once the commit ended, with its error in w.err.
func (w *fileWriter) Continue() bool {
	for {
		if w.sub != nil {
			if !w.sub.Continue() {
				return false
			}
			w.sub = nil
		}
		if w.at == fwDone {
			return true
		}
		w.next()
	}
}

// next runs the commit's next stage up to its next file op, which it
// leaves in w.sub, or to the commit's end.
func (w *fileWriter) next() {
	env, p, rank, hdr := w.env, w.p, w.rank, w.hdr
	switch w.at {
	case fwCreate:
		w.t = p.Now()
		w.sub, w.at = env.FS.StartCreate(p, rank, w.path, &w.h, &w.err), fwCreated
	case fwCreated:
		if w.err != nil {
			w.fail(fmt.Errorf("%s: %w", w.who, w.err))
			return
		}
		env.log(rank, iolog.OpCreate, w.t, p.Now(), 0)
		w.t = p.Now()
		w.sub, w.at = w.h.StartWriteAt(p, rank, 0, data.FromBytes(hdr.Marshal()), &w.err), fwHeader
	case fwHeader:
		if w.err != nil {
			w.fail(w.err)
			return
		}
		env.log(rank, iolog.OpWrite, w.t, p.Now(), hdr.HeaderSize())
		// A run holds the fields it takes to fill buffer, at most all of
		// them.
		held := min(len(w.fields), 1+int(w.buffer/w.block()))
		if need := held * (len(w.fields[0]) + 1); cap(w.run) < need {
			w.run = make([]data.Buf, 0, need)
		}
		w.at = fwField
	case fwField:
		// A field's epoch block is recorded after the write it filled, but
		// before the write of a run still held after the last field.
		last := w.fi == len(w.fields)
		if !last {
			var off int64
			w.run, off = appendBlock(w.run, hdr, w.fi, 0, w.fields[w.fi]...)
			if w.buffered == 0 {
				w.runStart = off
			}
			w.buffered += w.block()
		}
		w.at = fwBlock
		if w.buffered > 0 && (last || w.buffered >= w.buffer) {
			payload := data.Concat(w.run...)
			w.t, w.n = p.Now(), payload.Len()
			w.sub, w.at = w.h.StartWriteAt(p, rank, w.runStart, payload, &w.err), fwWrote
		}
	case fwWrote:
		if w.err != nil {
			w.fail(w.err)
			return
		}
		env.log(rank, iolog.OpWrite, w.t, p.Now(), w.n)
		clear(w.run)
		w.run, w.buffered, w.at = w.run[:0], 0, fwBlock
	case fwBlock:
		if w.fi < len(w.fields) {
			env.epochBlock(LevelGlobal, hdr.Step, rank, w.path, hdr.FieldOffset(w.fi), w.block(), p.Now())
			w.fi++
			w.at = fwField
			return
		}
		w.t = p.Now()
		w.sub, w.at = w.h.StartClose(p, rank, &w.err), fwClosed
	case fwClosed:
		if w.err != nil {
			w.fail(w.err)
			return
		}
		env.log(rank, iolog.OpClose, w.t, p.Now(), 0)
		w.fail(nil)
	}
}

// block is the size of a field's block in the file: its block header and
// every chunk.
func (w *fileWriter) block() int64 { return cemfmt.BlockHeaderSize + w.hdr.FieldBytes() }

// fail ends the commit with err (nil: a commit that succeeded) and drops
// what it held of the file and the payload.
func (w *fileWriter) fail(err error) {
	clear(w.run)
	*w = fileWriter{err: err, at: fwDone, run: w.run[:0]}
}

// collWriter is a rank's part of the collective commit of a shared file
// (coIO's group files, rbIO nf=1's one file) through f, which every rank
// of its communicator opened: header, then one split collective write per
// field, then close. The rank's chunks of each field are those from chunk
// first on. A field's op log record is the caller's, since the strategies
// log different views of the same write. Each collective call runs as
// call, the continuation a coIO rank's step awaits (startField,
// startClose) and an rbIO writer's phase awaits at once (field, close).
type collWriter struct {
	env   *Env
	f     *mpiio.File
	hdr   *cemfmt.Header
	path  string
	first int
	run   []data.Buf // a field's parts, reused across fields
	call  mpiio.Call // the collective call in flight
	err   error      // the header write's error

	// The call in flight: when it began, and a field's offset and bytes.
	t   float64
	off int64
	n   int64
}

// header has the rank holding chunk 0, which appendBlock gives the block
// headers, write the master header independently (it is small).
func (w *collWriter) header(r *mpi.Rank) error {
	if w.first != 0 {
		return nil
	}
	r.Proc().AwaitNow(w.startHeader(r))
	return w.headerDone(r)
}

// startHeader begins the header's write and returns it as the
// continuation the rank awaits; headerDone ends it.
func (w *collWriter) startHeader(r *mpi.Rank) sim.Cont {
	w.t = r.Now()
	return w.f.StartWriteAt(r, 0, data.FromBytes(w.hdr.Marshal()), &w.err)
}

// headerDone logs a finished header write and returns its error.
func (w *collWriter) headerDone(r *mpi.Rank) error {
	if w.err != nil {
		return w.err
	}
	w.env.log(r.ID(), iolog.OpWrite, w.t, r.Now(), w.hdr.HeaderSize())
	return nil
}

// field commits the rank's chunks of field fi with one split collective
// write and records its epoch block. It returns when the write began and
// how many bytes the rank contributed.
func (w *collWriter) field(r *mpi.Rank, fi int, chunks ...data.Buf) (t float64, n int64, err error) {
	r.Proc().AwaitNow(w.startField(r, fi, chunks...))
	return w.fieldDone(r)
}

// startField begins field's collective write and returns it as the
// continuation the rank awaits; fieldDone ends it.
func (w *collWriter) startField(r *mpi.Rank, fi int, chunks ...data.Buf) sim.Cont {
	off, payload := w.payload(fi, chunks)
	w.t, w.off, w.n = r.Now(), off, payload.Len()
	return w.call.StartWriteAtAll(w.f, r, off, payload)
}

// fieldDone records a finished field write's epoch block and returns
// field's results.
func (w *collWriter) fieldDone(r *mpi.Rank) (t float64, n int64, err error) {
	if err = w.call.Err(); err == nil {
		w.env.epochBlock(LevelGlobal, w.hdr.Step, r.ID(), w.path, w.off, w.n, r.Now())
	}
	return w.t, w.n, err
}

// payload returns the rank's contribution to field fi and its offset. A
// contribution of one part, such as a coIO rank's chunk, is not copied.
func (w *collWriter) payload(fi int, chunks []data.Buf) (int64, data.Buf) {
	var off int64
	w.run, off = appendBlock(w.run[:0], w.hdr, fi, w.first, chunks...)
	if len(w.run) == 1 {
		return off, w.run[0]
	}
	return off, data.Concat(w.run...)
}

// close closes the file.
func (w *collWriter) close(r *mpi.Rank) error {
	r.Proc().AwaitNow(w.startClose(r))
	return w.closeDone(r)
}

// startClose begins close's collective close and returns it as the
// continuation the rank awaits; closeDone ends it.
func (w *collWriter) startClose(r *mpi.Rank) sim.Cont {
	w.t = r.Now()
	return w.call.StartClose(w.f, r)
}

// closeDone logs a finished close and returns its error.
func (w *collWriter) closeDone(r *mpi.Rank) error {
	if err := w.call.Err(); err != nil {
		return err
	}
	w.env.log(r.ID(), iolog.OpClose, w.t, r.Now(), 0)
	return nil
}

// headerResult carries a parsed master header (or the failure) from the
// reading rank to its peers.
type headerResult struct {
	hdr *cemfmt.Header
	err error
}

// readChunkCollective restores a rank's chunk of path with collective I/O
// on comm: one rank opens and parses the master header, everyone shares it,
// and each field is fetched with a collective read (aggregators read their
// file domain once and scatter pieces) — the restart path a tuned MPI-IO
// application uses, avoiding a metadata storm of per-rank opens.
func readChunkCollective(env *Env, comm *mpi.Comm, r *mpi.Rank, hints mpiio.Hints, path string, chunkIdx int) (*Checkpoint, error) {
	t0 := r.Now()
	f, err := mpiio.Open(comm, r, env.FS, path, false, hints)
	if err != nil {
		return nil, err
	}
	env.log(r.ID(), iolog.OpOpen, t0, r.Now(), 0)

	var hr headerResult
	if comm.Rank(r) == 0 {
		hr.hdr, hr.err = parseHeader(env, r, f.Handle(), path)
	}
	hr = comm.BcastValueSized(r, 0, hr, 4096).(headerResult)
	if hr.err != nil {
		return nil, hr.err
	}
	hdr := hr.hdr
	if chunkIdx < 0 || chunkIdx >= hdr.NumChunks() {
		return nil, fmt.Errorf("ckpt: chunk %d not in %s (%d chunks)", chunkIdx, path, hdr.NumChunks())
	}
	cp := &Checkpoint{Step: hdr.Step, SimTime: hdr.SimTime}
	for fi, name := range hdr.Fields {
		t1 := r.Now()
		buf, err := f.ReadAtAll(r, hdr.ChunkOffset(fi, chunkIdx), hdr.ChunkBytes[chunkIdx])
		if err != nil {
			return nil, fmt.Errorf("ckpt: collective read of field %s in %s: %w", name, path, err)
		}
		env.log(r.ID(), iolog.OpRead, t1, r.Now(), buf.Len())
		cp.Fields = append(cp.Fields, Field{Name: name, Data: buf})
	}
	t2 := r.Now()
	if err := f.Close(r); err != nil {
		return nil, err
	}
	env.log(r.ID(), iolog.OpClose, t2, r.Now(), 0)
	return cp, nil
}

// parseHeader fetches and decodes a file's master header.
func parseHeader(env *Env, r *mpi.Rank, h fsys.Handle, path string) (*cemfmt.Header, error) {
	p := r.Proc()
	pre, err := h.ReadAt(p, r.ID(), 0, cemfmt.PreambleSize)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading preamble of %s: %w", path, err)
	}
	if !pre.Real() {
		return nil, fmt.Errorf("ckpt: %s header was written synthetically; cannot restart", path)
	}
	hlen, err := cemfmt.HeaderLenFromPreamble(pre.Bytes())
	if err != nil {
		return nil, err
	}
	rest, err := h.ReadAt(p, r.ID(), 0, cemfmt.PreambleSize+hlen)
	if err != nil {
		return nil, err
	}
	return cemfmt.Unmarshal(rest.Bytes())
}

// readChunk opens path and restores its one chunk for all fields with
// independent reads (the 1PFPP restart path). The master header is parsed
// when real; with synthetic content the caller's layout knowledge (expected
// chunk count) drives the offsets.
func readChunk(env *Env, r *mpi.Rank, path string) (*Checkpoint, error) {
	p := r.Proc()
	t0 := r.Now()
	h, err := env.FS.Open(p, r.ID(), path)
	if err != nil {
		return nil, err
	}
	env.log(r.ID(), iolog.OpOpen, t0, r.Now(), 0)

	hdr, err := parseHeader(env, r, h, path)
	if err != nil {
		return nil, err
	}
	if hdr.NumChunks() < 1 {
		return nil, fmt.Errorf("ckpt: chunk 0 not in %s (0 chunks)", path)
	}
	cp := &Checkpoint{Step: hdr.Step, SimTime: hdr.SimTime}
	for fi, name := range hdr.Fields {
		t1 := r.Now()
		buf, err := h.ReadAt(p, r.ID(), hdr.ChunkOffset(fi, 0), hdr.ChunkBytes[0])
		if err != nil {
			return nil, fmt.Errorf("ckpt: reading field %s of %s: %w", name, path, err)
		}
		env.log(r.ID(), iolog.OpRead, t1, r.Now(), buf.Len())
		cp.Fields = append(cp.Fields, Field{Name: name, Data: buf})
	}
	t2 := r.Now()
	if err := h.Close(p, r.ID()); err != nil {
		return nil, err
	}
	env.log(r.ID(), iolog.OpClose, t2, r.Now(), 0)
	return cp, nil
}
