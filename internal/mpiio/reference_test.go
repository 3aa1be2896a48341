package mpiio

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// refWriteAtAll is the collective write as blocking code in the rank's own
// phase, one call after another: the paired allgather of the ranges, the
// shared exchange plan, an Isend per remote domain piece, the aggregator's
// Recv of every piece, its chunked WriteAt and Sync, and the closing
// Barrier. It is the reference the library's collective write must match
// event for event.
func refWriteAtAll(f *File, r *mpi.Rank, off int64, buf data.Buf) error {
	c := f.c
	me := c.Rank(r)
	offs, lens := c.AllgatherInt64Pair(r, off, buf.Len())
	plan := f.planExchange(r, offs, lens)
	if len(plan.domains) > 0 {
		if err := refExchange(f, r, plan, off, buf, me); err != nil {
			return err
		}
	}
	c.Barrier(r)
	return nil
}

// refExchange ships the rank's pieces to their aggregators and, on an
// aggregator, receives and commits its domain.
func refExchange(f *File, r *mpi.Rank, plan *exchangePlan, off int64, buf data.Buf, me int) error {
	c := f.c
	const tag = 1 << 19
	var local []piece
	for i, d := range plan.domains {
		lo, hi := max(off, d.lo), min(off+buf.Len(), d.hi)
		if d.hi <= d.lo || hi <= lo {
			continue
		}
		part := buf.Slice(lo-off, hi-lo)
		if f.aggs[i] == me {
			local = append(local, piece{off: lo, buf: part})
			continue
		}
		c.Isend(r, f.aggs[i], tag+i, part)
	}
	agg := sort.SearchInts(f.aggs, me)
	if agg == len(f.aggs) || f.aggs[agg] != me {
		return nil
	}
	pieces := local
	for _, x := range plan.perDomain[agg] {
		if x.src == me {
			continue
		}
		got, _ := c.Recv(r, x.src, tag+agg)
		if got.Len() != x.hi-x.lo {
			return fmt.Errorf("reference: aggregator %d expected %d bytes from %d, got %d", me, x.hi-x.lo, x.src, got.Len())
		}
		pieces = append(pieces, piece{off: x.lo, buf: got})
	}
	for _, run := range coalesce(pieces) {
		for at := int64(0); at < run.buf.Len(); at += cbBufferSize {
			n := min(cbBufferSize, run.buf.Len()-at)
			if err := f.h.WriteAt(r.Proc(), r.ID(), run.off+at, run.buf.Slice(at, n)); err != nil {
				return err
			}
		}
	}
	r.Proc().AwaitNow(f.h.StartSync(r.Proc(), r.ID()))
	return nil
}

// collRun is what one collective write left behind: each member's return
// time, the events scheduled, the file's bytes and the token traffic.
type collRun struct {
	times           []float64
	events          uint64
	file            data.Buf
	grants, revokes int
}

// runCollective writes layout l collectively with write on fsName, on the
// serial kernel (shards 0) or on the partitioned kernel with one lane per
// pset and shards workers.
func runCollective(t *testing.T, l layout, fsName string, shards int, write func(f *File, r *mpi.Rank, off int64, buf data.Buf) error) collRun {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(l.world))
	if shards > 0 {
		k.EnableSharding(m.NumPsets(), shards, mpi.Lookahead(m), 1)
	}
	var fs *storage.Core
	var err error
	if fsName == "pvfs" {
		cfg := storage.DefaultPVFS()
		cfg.BlockSize = l.block
		fs, err = storage.NewPVFS(m, cfg)
	} else {
		cfg := storage.DefaultGPFS()
		cfg.BlockSize = l.block
		fs, err = storage.NewGPFS(m, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var sys fsys.System = fs
	if shards > 0 {
		sys = fsys.Guard(fs) // storage runs in shared sections, as exp builds it
	}
	out := collRun{times: make([]float64, l.n)}
	err = mpi.NewWorld(m, mpi.DefaultConfig()).Run(func(world *mpi.Comm, r *mpi.Rank) {
		me := world.Rank(r)
		color := int64(1)
		if me%l.stride == 0 && me/l.stride < l.n {
			color = 0
		}
		c := world.Split(r, color, int64(me))
		if color != 0 {
			return
		}
		i := c.Rank(r)
		f, err := Open(c, r, sys, "coll", true, l.hints)
		if err != nil {
			t.Error(err)
			return
		}
		if err := write(f, r, l.offs[i], l.payload(i)); err != nil {
			t.Errorf("rank %d: %v", i, err)
		}
		out.times[i] = r.Now()
		f.Close(r)
		if i == 0 {
			out.file = readAll(t, r, sys, "coll")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out.events = k.Events()
	out.grants, out.revokes = fs.Stats.TokenGrants, fs.Stats.TokenRevokes
	return out
}

// checkAgainstReference writes l through the library's collective write
// and through refWriteAtAll, and requires the same return times, events,
// file bytes and token traffic from both.
func checkAgainstReference(t *testing.T, l layout, fsName string, shards int) {
	t.Helper()
	lib := runCollective(t, l, fsName, shards, (*File).WriteAtAll)
	ref := runCollective(t, l, fsName, shards, refWriteAtAll)
	where := fmt.Sprintf("%s, %d shards", fsName, shards)
	for i := range lib.times {
		if lib.times[i] != ref.times[i] {
			t.Fatalf("%s: member %d returned at %v, reference at %v", where, i, lib.times[i], ref.times[i])
		}
	}
	if lib.events != ref.events {
		t.Fatalf("%s: %d events, reference %d", where, lib.events, ref.events)
	}
	if lib.file.Len() != ref.file.Len() || !bytes.Equal(lib.file.Bytes(), ref.file.Bytes()) {
		t.Fatalf("%s: file of %d bytes differs from the reference's %d", where, lib.file.Len(), ref.file.Len())
	}
	if lib.grants != ref.grants || lib.revokes != ref.revokes {
		t.Fatalf("%s: %d token grants and %d revokes, reference %d and %d", where, lib.grants, lib.revokes, ref.grants, ref.revokes)
	}
}

// extents lays n members' extents out in rank order: member i writes
// lens[i%len(lens)] bytes after a gap of gap bytes.
func extents(n int, gap int64, lens ...int64) (offs, ls []int64) {
	offs, ls = make([]int64, n), make([]int64, n)
	var at int64
	for i := range offs {
		at += gap
		offs[i], ls[i] = at, lens[i%len(lens)]
		at += ls[i]
	}
	return offs, ls
}

// TestCollectiveWriteMatchesReference holds the library's collective write
// to the blocking reference on hand-made layouts: within one pset and
// across four, with empty ranks, ranks that are aggregators and write into
// their own domain and others', aligned and unaligned domains, on GPFS and
// PVFS, serial and on the partitioned kernel.
func TestCollectiveWriteMatchesReference(t *testing.T) {
	type tc struct {
		name string
		l    layout
	}
	var cases []tc
	add := func(name string, world, stride, n int, hints Hints, block, gap int64, lens ...int64) {
		offs, ls := extents(n, gap, lens...)
		cases = append(cases, tc{name, layout{world: world, stride: stride, n: n, hints: hints, block: block, offs: offs, lens: ls}})
	}
	add("one pset, abutting", 256, 1, 64, DefaultHints(), 4096, 0, 4096)
	add("one pset, empty ranks and gaps", 256, 4, 64, DefaultHints(), 4096, 700, 5000, 0, 3000)
	add("four psets, sparse members", 1024, 16, 64, DefaultHints(), 65536, 100, 70000, 1)
	add("four psets, every rank an aggregator", 1024, 32, 32, Hints{AggRatio: 1}, 4096, 0, 9000)
	add("four psets, unaligned straddling domains", 1024, 8, 128, Hints{AggRatio: 16}, 512, 3, 1500, 0, 2500)
	add("nothing to write", 256, 1, 16, DefaultHints(), 4096, 0, 0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, fs := range []string{"gpfs", "pvfs"} {
				for _, shards := range []int{0, 2} {
					checkAgainstReference(t, c.l, fs, shards)
				}
			}
		})
	}
}
