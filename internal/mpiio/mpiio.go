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
//   - Split collectives (Begin/End), which NekCEM uses: Begin performs the
//     exchange and the aggregator writes; End completes the collective.
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

	"repro/internal/machine"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/mpi"
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
	hints = hints.validate(c.Size())
	var res openResult
	if c.Rank(r) == 0 {
		if create {
			res.h, res.err = fs.Create(r.Proc(), r.ID(), path)
		} else {
			res.h, res.err = fs.Open(r.Proc(), r.ID(), path)
		}
		res.aggs = chooseAggregators(c, fs.Machine(), hints.AggRatio)
	}
	res = c.BcastValueSized(r, 0, res, 64).(openResult)
	if res.err != nil {
		return nil, res.err
	}
	return &File{c: c, fs: fs, h: res.h, hints: hints, aggs: res.aggs}, nil
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

// WriteAt performs an independent write from this rank.
func (f *File) WriteAt(r *mpi.Rank, off int64, buf data.Buf) error {
	return f.h.WriteAt(r.Proc(), r.ID(), off, buf)
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
			if lens[src] == 0 {
				continue
			}
			for _, di := range overlapDomains(p.domains, offs[src], offs[src]+lens[src]) {
				d := p.domains[di]
				x := xfer{src: src, lo: max(offs[src], d.lo), hi: min(offs[src]+lens[src], d.hi)}
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
	if err := f.WriteAtAllBegin(r, off, buf); err != nil {
		return err
	}
	return f.WriteAtAllEnd(r)
}

// WriteAtAllBegin starts a split collective write (the
// MPI_File_write_at_all_begin of the paper). Non-aggregator ranks ship
// their data to the owning aggregators and return; aggregators receive and
// commit their file domain.
func (f *File) WriteAtAllBegin(r *mpi.Rank, off int64, buf data.Buf) error {
	c := f.c
	me := c.Rank(r)

	// Phase 0: everyone learns everyone's access range (ROMIO's
	// ADIOI_Calc_others_req allgather).
	offs, lens := c.AllgatherInt64Pair(r, off, buf.Len())

	plan := f.planExchange(r, offs, lens)
	domains := plan.domains
	if len(domains) == 0 {
		return nil
	}

	// Phase 1: exchange. Each rank slices its buffer by domain and sends to
	// the owning aggregator. The aggregator list is sorted by construction.
	const tag = 1 << 19
	myAggIdx := -1
	if i := sort.SearchInts(f.aggs, me); i < len(f.aggs) && f.aggs[i] == me {
		myAggIdx = i
	}
	var local []piece // data this rank contributes to its own domain
	if buf.Len() > 0 {
		for _, i := range overlapDomains(domains, off, off+buf.Len()) {
			d := domains[i]
			pLo, pHi := max(off, d.lo), min(off+buf.Len(), d.hi)
			part := buf.Slice(pLo-off, pHi-pLo)
			if f.aggs[i] == me {
				local = append(local, piece{off: pLo, buf: part})
				continue
			}
			// Header (offset) travels with the payload.
			c.Isend(r, f.aggs[i], tag+i, part)
		}
	}

	if myAggIdx < 0 {
		return nil
	}

	// Phase 2: this rank owns a domain; receive every overlapping piece.
	pieces := local
	for _, x := range plan.perDomain[myAggIdx] {
		if x.src == me {
			continue
		}
		got, _ := c.Recv(r, x.src, tag+myAggIdx)
		if got.Len() != x.hi-x.lo {
			return fmt.Errorf("mpiio: aggregator %d expected %d bytes from %d, got %d",
				me, x.hi-x.lo, x.src, got.Len())
		}
		pieces = append(pieces, piece{off: x.lo, buf: got})
	}

	// Phase 3: coalesce contiguous pieces and commit in cb_buffer_size
	// chunks.
	for _, run := range coalesce(pieces) {
		for chunk := int64(0); chunk < run.buf.Len(); chunk += cbBufferSize {
			sz := min(cbBufferSize, run.buf.Len()-chunk)
			if err := f.h.WriteAt(r.Proc(), r.ID(), run.off+chunk, run.buf.Slice(chunk, sz)); err != nil {
				return err
			}
		}
	}
	// An aggregator's buffered data must be durable before the collective
	// completes; flush write-behind state.
	f.h.Sync(r.Proc(), r.ID())
	return nil
}

// WriteAtAllEnd completes the split collective: all ranks synchronize.
func (f *File) WriteAtAllEnd(r *mpi.Rank) error {
	f.c.Barrier(r)
	return nil
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
	if n > 0 {
		for _, di := range overlapDomains(plan.domains, off, off+n) {
			if di == myAggIdx {
				continue // already satisfied locally
			}
			d := plan.domains[di]
			pLo := max(off, d.lo)
			got, _ := c.Recv(r, f.aggs[di], tag+di)
			parts = append(parts, piece{off: pLo, buf: got})
		}
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

// overlapDomains returns the indices of the domains intersecting [lo, hi),
// in order, using binary search over the sorted, abutting domain table.
func overlapDomains(domains []domain, lo, hi int64) []int {
	if hi <= lo {
		return nil
	}
	i := sort.Search(len(domains), func(i int) bool { return domains[i].hi > lo })
	var out []int
	for ; i < len(domains) && domains[i].lo < hi; i++ {
		if domains[i].hi > domains[i].lo { // skip empty domains
			out = append(out, i)
		}
	}
	return out
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
	f.c.Barrier(r)
	var err error
	if f.c.Rank(r) == 0 {
		err = f.h.Close(r.Proc(), r.ID())
	}
	f.c.Barrier(r)
	return err
}
