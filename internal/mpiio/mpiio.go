// Package mpiio implements an MPI-IO layer over the simulated GPFS,
// reproducing the ROMIO optimizations the paper's coIO strategy relies on:
//
//   - Collective open: one rank touches the metadata server; the handle is
//     broadcast, avoiding a create/open storm.
//   - Two-phase collective buffering for collective writes: the ranks'
//     access ranges are allgathered, the aggregate extent is partitioned
//     into file domains owned by a small set of I/O aggregators (one per
//     "bgp_nodes_pset"-style ratio of ranks, spread across psets), domains
//     are aligned to file system block boundaries to avoid lock-token
//     false sharing, data is exchanged point-to-point to the aggregators,
//     and each aggregator commits its domain in collective-buffer-sized
//     chunks.
//   - Split collectives (MPI_File_write_at_all_begin/end), which NekCEM
//     issues per field: the exchange, the aggregators' commit and the
//     closing barrier run as one collective write.
//
// Open, the collective write and Close are each one continuation of the
// rank (Call), as the MPI collectives are (DESIGN §5): their steps run in
// the slots where the rank's blocking code would have resumed, on the
// driver's stack, and so do the calls into storage — comm rank 0's
// create, open and close, and an aggregator's chunked writes and sync —
// which are the file system's own continuations. So no rank holds a
// coroutine through them. The blocking functions (Open, WriteAtAll,
// Close) await a Call at once.
//
// Differences from ROMIO are modelling simplifications: the exchange sends
// each rank's full intersection with a domain in one message instead of
// per-round slices, and the aggregator then writes in cb_buffer_size chunks.
// The buffer-size effect on write granularity is preserved; only intra-round
// pipelining is approximated.
package mpiio

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Hints mirror the MPI-IO hints the paper tunes.
type Hints struct {
	// AggRatio is one I/O aggregator per this many ranks (the
	// "bgp_nodes_pset" knob; BG/P default in VN mode is 32).
	AggRatio int
	// AlignDomains aligns file-domain boundaries to file system blocks,
	// the BG/P ADIO optimization that avoids lock false sharing.
	AlignDomains bool
}

// DefaultHints returns the BG/P MPI-IO defaults.
func DefaultHints() Hints {
	return Hints{AggRatio: 32, AlignDomains: true}
}

// cbBufferSize is the collective buffer per aggregator (the ROMIO default
// cb_buffer_size); aggregators commit their file domain in chunks of this
// size.
const cbBufferSize int64 = 16 << 20

func (h Hints) validate(commSize int) Hints {
	if h.AggRatio <= 0 {
		h.AggRatio = 32
	}
	if h.AggRatio > commSize {
		h.AggRatio = commSize
	}
	return h
}

// File is an MPI-IO file handle shared by a communicator.
type File struct {
	c     *mpi.Comm
	fs    fsys.System
	h     fsys.Handle
	hints Hints
	aggs  []int // comm ranks acting as I/O aggregators
}

// openResult carries the shared handle (and the aggregator layout, which
// every rank would derive identically) from the opening rank to the others.
type openResult struct {
	h    fsys.Handle
	aggs []int
	err  error
}

// Open collectively opens (or creates) path on behalf of every rank of c.
// Only comm rank 0 touches the metadata server; the resulting handle is
// broadcast. Every rank must call it and receives an equivalent *File
// sharing one GPFS handle.
func Open(c *mpi.Comm, r *mpi.Rank, fs fsys.System, path string, create bool, hints Hints) (*File, error) {
	k := new(Call).StartOpen(c, r, fs, path, create, hints)
	r.Proc().AwaitNow(k)
	return k.File(), k.Err()
}

// chooseAggregators selects I/O aggregators the way BG/P's MPI-IO does: the
// "bgp_nodes_pset" hint fixes a per-pset aggregator quota (the default
// 32:1 ratio over a pset's 256 VN-mode ranks gives 8 aggregators per pset),
// and aggregators are spread over each pset's participating ranks so no
// node carries more than one. A communicator whose ranks are thinly spread
// across psets (e.g. rbIO's writers, one per group) therefore gets an
// aggregator per rank, not one per 32 — the behaviour the paper relies on
// when it observes rbIO nf=1 performing like coIO nf=1.
func chooseAggregators(c *mpi.Comm, m *machine.Machine, ratio int) []int {
	quota := m.RanksPerPset() / ratio
	if quota < 1 {
		quota = 1
	}
	var aggs []int
	n := c.Size()
	start := 0
	for start < n {
		// Members are sorted by world rank, so a pset's ranks are contiguous.
		pset := m.PsetOfRank(c.WorldRank(start))
		end := start
		for end < n && m.PsetOfRank(c.WorldRank(end)) == pset {
			end++
		}
		count := end - start
		take := quota
		if take > count {
			take = count
		}
		for i := 0; i < take; i++ {
			aggs = append(aggs, start+i*count/take)
		}
		start = end
	}
	return aggs
}

// Aggregators returns the comm ranks serving as I/O aggregators.
func (f *File) Aggregators() []int { return f.aggs }

// Handle exposes the underlying file system handle.
func (f *File) Handle() fsys.Handle { return f.h }

// StartWriteAt begins r's independent write and returns it as the
// continuation r awaits, which sets *err once it finished.
func (f *File) StartWriteAt(r *mpi.Rank, off int64, buf data.Buf, err *error) sim.Cont {
	return f.h.StartWriteAt(r.Proc(), r.ID(), off, buf, err)
}

// piece is a fragment of a file domain received by an aggregator.
type piece struct {
	off int64
	buf data.Buf
}

// xfer is one planned source contribution to a file domain.
type xfer struct {
	src    int
	lo, hi int64
}

// exchangePlan is the per-collective two-phase layout every rank derives
// from the allgathered access ranges.
type exchangePlan struct {
	domains   []domain
	perDomain [][]xfer // per domain: overlapping sources, by rank
}

// planExchange derives the extent, domain table and per-domain sources that
// every rank computes identically from the allgathered ranges; Shared
// computes them once per collective, so every rank calls it at the same
// point in its collective sequence.
func (f *File) planExchange(r *mpi.Rank, offs, lens []int64) *exchangePlan {
	return f.c.Shared(r, func() any {
		lo, hi := int64(1<<62), int64(0)
		for i := range lens {
			if lens[i] > 0 {
				lo, hi = min(lo, offs[i]), max(hi, offs[i]+lens[i])
			}
		}
		p := &exchangePlan{}
		if hi <= lo {
			return p // nothing to move anywhere
		}
		p.domains = f.fileDomains(lo, hi)
		p.perDomain = make([][]xfer, len(p.domains))
		for src := range lens {
			end := offs[src] + lens[src]
			for di := overlapDomains(p.domains, offs[src], end); di < len(p.domains) && p.domains[di].lo < end; di++ {
				d := p.domains[di]
				if d.hi <= d.lo {
					continue
				}
				x := xfer{src: src, lo: max(offs[src], d.lo), hi: min(end, d.hi)}
				p.perDomain[di] = append(p.perDomain[di], x)
			}
		}
		return p
	}).(*exchangePlan)
}

// WriteAtAll performs a collective write: every rank of the communicator
// contributes (off, buf) — possibly empty — and all ranks return when the
// aggregated write completes.
func (f *File) WriteAtAll(r *mpi.Rank, off int64, buf data.Buf) error {
	k := new(Call).StartWriteAtAll(f, r, off, buf)
	r.Proc().AwaitNow(k)
	return k.Err()
}

// writeTag is the collective write's exchange tag space: the piece for
// domain i travels with tag writeTag+i.
const writeTag = 1 << 19

// Call is one rank's collective MPI-IO call in flight — an Open, a
// WriteAtAll or a Close — as the continuation the rank awaits
// (sim.Proc.Then from its body, sim.Proc.AwaitNow from a phase). Each
// wait is an MPI call's or a file operation's own continuation
// (fsys.System.StartCreate and the handle's StartWriteAt, StartSync and
// StartClose). A caller may keep one Call and start its calls in it one
// after another.
type Call struct {
	r    *mpi.Rank
	c    *mpi.Comm
	f    *File
	at   callStage
	sub  sim.Cont      // the wait in flight: an MPI call or a borrowed phase
	coll *mpi.CollCall // the collective whose result the next stage takes
	err  error

	// Open's arguments, and comm rank 0's result.
	fs     fsys.System
	path   string
	create bool
	hints  Hints
	res    openResult

	// The collective write: the rank's extent, the exchange plan, the next
	// domain the exchange visits, the rank's own domain (-1 on a
	// non-aggregator), the next source it receives from, and the pieces of
	// its domain it holds.
	off        int64
	buf        data.Buf
	offs, lens []int64
	plan       *exchangePlan
	me         int
	di         int
	agg        int
	xi         int
	pieces     []piece

	// An aggregator's commit: its domain's contiguous runs, the run being
	// written and the offset of its next cb_buffer_size chunk.
	runs  []piece
	ri    int
	chunk int64
}

// callStage is where a Call goes on once its wait in flight finished.
type callStage uint8

const (
	openStart     callStage = iota // comm rank 0 creates or opens the file
	openCreated                    // the handle's broadcast starts
	openShared                     // the broadcast finished
	writeStart                     // the ranges' allgather starts
	writeRanges                    // the allgather finished; the plan is derived
	writePlanned                   // the plan is known; the exchange starts
	writeExchange                  // the exchange ships the rank's next piece
	writeReceived                  // an aggregator received its pieces; it commits
	writeCommit                    // the aggregator writes its next chunk, or syncs
	writeBarrier                   // the closing barrier starts, unless the commit failed
	closeStart                     // the first barrier starts
	closeHandle                    // comm rank 0 closes the file
	closeClosed                    // the second barrier starts
	callDone                       // the call ended
)

// StartOpen begins r's Open in k and returns k.
func (k *Call) StartOpen(c *mpi.Comm, r *mpi.Rank, fs fsys.System, path string, create bool, hints Hints) *Call {
	*k = Call{r: r, c: c, at: openStart, fs: fs, path: path, create: create, hints: hints.validate(c.Size()), pieces: k.pieces[:0]}
	return k
}

// StartWriteAtAll begins r's WriteAtAll of buf at off in k and returns k.
func (k *Call) StartWriteAtAll(f *File, r *mpi.Rank, off int64, buf data.Buf) *Call {
	*k = Call{r: r, c: f.c, f: f, at: writeStart, off: off, buf: buf, pieces: k.pieces[:0]}
	return k
}

// StartClose begins r's Close of f in k and returns k.
func (k *Call) StartClose(f *File, r *mpi.Rank) *Call {
	*k = Call{r: r, c: f.c, f: f, at: closeStart, pieces: k.pieces[:0]}
	return k
}

// File returns the file a finished Open opened, nil on an error.
func (k *Call) File() *File { return k.f }

// Err returns the finished call's error.
func (k *Call) Err() error { return k.err }

// Continue implements sim.Cont: it runs the call's steps until one waits,
// and reports true once the call ended.
func (k *Call) Continue() bool {
	for {
		if k.sub != nil {
			if !k.sub.Continue() {
				return false
			}
			k.sub = nil
		}
		if k.at == callDone {
			return true
		}
		k.step()
	}
}

// step runs the call's next stage up to its next wait, which it leaves in
// k.sub, or to the call's end.
func (k *Call) step() {
	r, c := k.r, k.c
	switch k.at {
	case openStart:
		k.at = openCreated
		if c.Rank(r) != 0 {
			return
		}
		if k.create {
			k.sub = k.fs.StartCreate(r.Proc(), r.ID(), k.path, &k.res.h, &k.res.err)
		} else {
			k.sub = k.fs.StartOpen(r.Proc(), r.ID(), k.path, &k.res.h, &k.res.err)
		}
	case openCreated:
		// Only the root's value travels; the others' is replaced by it,
		// and with it the aggregator layout every rank would derive
		// identically.
		var v any
		if c.Rank(r) == 0 {
			k.res.aggs = chooseAggregators(c, k.fs.Machine(), k.hints.AggRatio)
			v = k.res
		}
		k.coll = c.StartBcastValueSized(r, 0, v, 64)
		k.sub, k.at = k.coll, openShared
	case openShared:
		res := k.coll.Value().(openResult)
		if res.err != nil {
			k.err = res.err
		} else {
			k.f = &File{c: c, fs: k.fs, h: res.h, hints: k.hints, aggs: res.aggs}
		}
		k.end()

	case writeStart:
		// Phase 0: everyone learns everyone's access range (ROMIO's
		// ADIOI_Calc_others_req allgather).
		k.coll = c.StartAllgatherInt64Pair(r, k.off, k.buf.Len())
		k.sub, k.at = k.coll, writeRanges
	case writeRanges:
		k.offs, k.lens = k.coll.Int64Pair()
		k.at = writePlanned
		if c.NeedsSection() {
			k.sub = r.Proc().Phase(k.planInSection)
			return
		}
		k.plan = k.f.planExchange(r, k.offs, k.lens)
	case writePlanned:
		k.at = writeBarrier
		domains := k.plan.domains
		if len(domains) == 0 {
			return
		}
		// Phase 1: exchange. Each rank slices its buffer by domain and
		// sends to the owning aggregator. The aggregator list is sorted by
		// construction.
		k.me, k.agg = c.Rank(r), -1
		if i := sort.SearchInts(k.f.aggs, k.me); i < len(k.f.aggs) && k.f.aggs[i] == k.me {
			k.agg = i
		}
		k.di = overlapDomains(domains, k.off, k.off+k.buf.Len())
		k.at = writeExchange
	case writeExchange:
		if k.exchange() {
			return
		}
		k.at = writeBarrier
		if k.agg >= 0 {
			// Phase 2: this rank owns a domain; receive every
			// overlapping piece.
			k.sub, k.at = c.StartRecvSeq(r, k), writeReceived
		}
	case writeReceived:
		if k.err != nil {
			k.end()
			return
		}
		// Phase 3: commit the domain: contiguous pieces coalesce into
		// runs, each written in cb_buffer_size chunks.
		k.runs, k.ri, k.chunk = coalesce(k.pieces), 0, 0
		k.at = writeCommit
	case writeCommit:
		k.commit()
	case writeBarrier:
		if k.err == nil {
			k.sub = c.StartBarrier(r)
		}
		k.end()

	case closeStart:
		k.sub, k.at = c.StartBarrier(r), closeHandle
	case closeHandle:
		k.at = closeClosed
		if c.Rank(r) == 0 {
			k.sub = k.f.h.StartClose(r.Proc(), r.ID(), &k.err)
		}
	case closeClosed:
		k.sub, k.at = c.StartBarrier(r), callDone
	}
}

// end ends the call once its last wait, if any, finished, and drops what
// it held of the payload and the plan.
func (k *Call) end() {
	k.at, k.coll, k.res = callDone, nil, openResult{}
	k.buf, k.offs, k.lens, k.plan, k.runs = data.Buf{}, nil, nil, nil, nil
	clear(k.pieces)
	k.pieces = k.pieces[:0]
}

// planInSection derives the exchange plan in a phase, which enters the
// shared section Shared needs on a pset-spanning communicator.
func (k *Call) planInSection(*sim.Proc) { k.plan = k.f.planExchange(k.r, k.offs, k.lens) }

// exchange starts the Isend of the rank's next piece for another
// aggregator's domain, walking the domains its extent overlaps, and
// reports whether it started one. Pieces of the rank's own domain it
// keeps.
func (k *Call) exchange() bool {
	domains, end := k.plan.domains, k.off+k.buf.Len()
	for ; k.di < len(domains) && domains[k.di].lo < end; k.di++ {
		d := domains[k.di]
		if d.hi <= d.lo {
			continue
		}
		lo, hi := max(k.off, d.lo), min(end, d.hi)
		part := k.buf.Slice(lo-k.off, hi-lo)
		if agg := k.f.aggs[k.di]; agg != k.me {
			// Header (offset) travels with the payload.
			k.sub = k.c.StartIsend(k.r, agg, writeTag+k.di, part, nil)
			k.di++
			return true
		}
		k.pieces = append(k.pieces, piece{off: lo, buf: part})
	}
	return false
}

// NextRecv implements mpi.RecvSeq: an aggregator's next piece, from each
// source its domain overlaps but itself, in plan order. A piece of the
// wrong size ends the receives.
func (k *Call) NextRecv(*mpi.Rank) (src, tag int, timeout float64, ok bool) {
	xs := k.plan.perDomain[k.agg]
	for k.xi < len(xs) && xs[k.xi].src == k.me {
		k.xi++
	}
	if k.err != nil || k.xi == len(xs) {
		return 0, 0, 0, false
	}
	return xs[k.xi].src, writeTag + k.agg, -1, true
}

// Recvd implements mpi.RecvSeq: it keeps the piece, checking its size
// against the plan.
func (k *Call) Recvd(_ *mpi.Rank, _ float64, got data.Buf, _ bool) {
	x := k.plan.perDomain[k.agg][k.xi]
	k.xi++
	if got.Len() != x.hi-x.lo {
		k.err = fmt.Errorf("mpiio: aggregator %d expected %d bytes from %d, got %d",
			k.me, x.hi-x.lo, x.src, got.Len())
		return
	}
	k.pieces = append(k.pieces, piece{off: x.lo, buf: got})
}

// commit starts an aggregator's write of its domain's next chunk. An
// aggregator's buffered data must be durable before the collective
// completes, so once every chunk is written it flushes write-behind
// state; a write that failed ends the commit there.
func (k *Call) commit() {
	if k.err != nil {
		k.at = writeBarrier
		return
	}
	p, rank, h := k.r.Proc(), k.r.ID(), k.f.h
	for ; k.ri < len(k.runs); k.ri, k.chunk = k.ri+1, 0 {
		run := k.runs[k.ri]
		if k.chunk < run.buf.Len() {
			sz := min(cbBufferSize, run.buf.Len()-k.chunk)
			k.sub = h.StartWriteAt(p, rank, run.off+k.chunk, run.buf.Slice(k.chunk, sz), &k.err)
			k.chunk += sz
			return
		}
	}
	k.sub, k.at = h.StartSync(p, rank), writeBarrier
}

// ReadAtAll performs a collective read: every rank of the communicator
// requests (off, n) — possibly zero — and receives its payload. The
// two-phase runs in reverse: aggregators read their file domains once and
// scatter the requested pieces to the ranks.
func (f *File) ReadAtAll(r *mpi.Rank, off, n int64) (data.Buf, error) {
	c := f.c
	me := c.Rank(r)

	offs, lens := c.AllgatherInt64Pair(r, off, n)

	plan := f.planExchange(r, offs, lens)
	if len(plan.domains) == 0 {
		f.c.Barrier(r)
		return data.Buf{}, nil
	}

	const tag = 1 << 18
	myAggIdx := -1
	if i := sort.SearchInts(f.aggs, me); i < len(f.aggs) && f.aggs[i] == me {
		myAggIdx = i
	}

	// Phase 1: aggregators read the needed span of their domain once and
	// scatter the requested pieces.
	var ownPiece piece
	ownSatisfied := false
	if myAggIdx >= 0 && len(plan.perDomain[myAggIdx]) > 0 {
		reqs := plan.perDomain[myAggIdx]
		lo, hi := reqs[0].lo, reqs[0].hi
		for _, x := range reqs {
			if x.lo < lo {
				lo = x.lo
			}
			if x.hi > hi {
				hi = x.hi
			}
		}
		span, err := f.h.ReadAt(r.Proc(), r.ID(), lo, hi-lo)
		if err != nil {
			return data.Buf{}, err
		}
		for _, x := range reqs {
			part := span.Slice(x.lo-lo, x.hi-x.lo)
			if x.src == me {
				ownPiece = piece{off: x.lo, buf: part}
				ownSatisfied = true
				continue
			}
			c.Isend(r, x.src, tag+myAggIdx, part)
		}
	}

	// Phase 2: collect this rank's pieces from the owning aggregators.
	var parts []piece
	if ownSatisfied {
		parts = append(parts, ownPiece)
	}
	for di := overlapDomains(plan.domains, off, off+n); di < len(plan.domains) && plan.domains[di].lo < off+n; di++ {
		d := plan.domains[di]
		if d.hi <= d.lo || di == myAggIdx {
			continue // empty, or already satisfied locally
		}
		got, _ := c.Recv(r, f.aggs[di], tag+di)
		parts = append(parts, piece{off: max(off, d.lo), buf: got})
	}
	f.c.Barrier(r)

	if n == 0 {
		return data.Buf{}, nil
	}
	runs := coalesce(parts)
	if len(runs) != 1 || runs[0].off != off || runs[0].buf.Len() != n {
		return data.Buf{}, fmt.Errorf("mpiio: collective read assembled %d runs for [%d,%d)", len(runs), off, off+n)
	}
	return runs[0].buf, nil
}

// fileDomains partitions [lo, hi) across the aggregators, optionally
// aligning boundaries to file system blocks.
type domain struct{ lo, hi int64 }

func (f *File) fileDomains(lo, hi int64) []domain {
	nAgg := int64(len(f.aggs))
	span := hi - lo
	out := make([]domain, nAgg)
	bs := f.fs.BlockSize()
	for i := int64(0); i < nAgg; i++ {
		dLo := lo + span*i/nAgg
		dHi := lo + span*(i+1)/nAgg
		if f.hints.AlignDomains {
			if i != 0 {
				dLo = alignUp(dLo, bs)
			}
			if i != nAgg-1 {
				dHi = alignUp(dHi, bs)
			}
		}
		if dHi < dLo {
			dHi = dLo
		}
		out[i] = domain{lo: dLo, hi: dHi}
	}
	return out
}

func alignUp(v, b int64) int64 { return (v + b - 1) / b * b }

// overlapDomains returns the index of the first domain that may intersect
// [lo, hi), by binary search over the sorted, abutting domain table, and
// len(domains) when the range is empty. The domains intersecting it are
// the non-empty ones from there on while their lo is below hi; callers
// walk them in place, so the search allocates nothing.
func overlapDomains(domains []domain, lo, hi int64) int {
	if hi <= lo {
		return len(domains)
	}
	return sort.Search(len(domains), func(i int) bool { return domains[i].hi > lo })
}

// coalesce merges adjoining pieces into maximal contiguous runs.
func coalesce(pieces []piece) []piece {
	if len(pieces) == 0 {
		return nil
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].off < pieces[j].off })
	out := []piece{pieces[0]}
	for _, p := range pieces[1:] {
		last := &out[len(out)-1]
		if p.off == last.off+last.buf.Len() {
			last.buf = data.Concat(last.buf, p.buf)
		} else {
			out = append(out, p)
		}
	}
	return out
}

// Close collectively closes the file: ranks synchronize and rank 0 releases
// the handle.
func (f *File) Close(r *mpi.Rank) error {
	k := new(Call).StartClose(f, r)
	r.Proc().AwaitNow(k)
	return k.Err()
}
