package mpiio

import (
	"bytes"
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

// layout is a collective write decoded from fuzz input: the members'
// world ranks, the hints, the file system block size, and one extent per
// member, possibly empty.
type layout struct {
	world  int   // ranks in the machine
	stride int   // world-rank distance between consecutive members
	n      int   // members, in [1, 64]
	hints  Hints // as given: zero and oversized ratios included
	block  int64
	offs   []int64
	lens   []int64
}

// decodeLayout reads a layout from in, missing bytes reading as 0. The
// extents are disjoint: they are laid out in the order of a per-rank key,
// each after a gap from the previous one.
func decodeLayout(in []byte) layout {
	next := func() int64 {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int64(b)
	}
	l := layout{n: int(1 + next()%64), stride: 1 << (next() % 4)}
	l.world = 64 * l.stride
	l.hints = Hints{AggRatio: int(next() % 70), AlignDomains: next()&1 == 1}
	l.block = 512 * (1 + next()%16)
	keys := make([]int64, l.n)
	gaps := make([]int64, l.n)
	l.lens = make([]int64, l.n)
	for i := range l.lens {
		keys[i] = next()
		gaps[i] = next() * l.block / 32
		a, b := next(), next()
		if a%8 != 7 { // one rank in eight, and any rank past the input, is empty
			l.lens[i] = a*l.block/64 + b
		}
	}
	order := make([]int, l.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	l.offs = make([]int64, l.n)
	at := next() * l.block / 16
	for _, i := range order {
		at += gaps[i]
		l.offs[i] = at
		at += l.lens[i]
	}
	return l
}

// payload is member i's bytes: nonzero, so a hole reads differently.
func (l layout) payload(i int) data.Buf {
	b := make([]byte, l.lens[i])
	for j := range b {
		b[j] = byte(1 + (i*131+j*7)%255)
	}
	return data.FromBytes(b)
}

// countingFS hands out handles that record every write to the file at
// path: the bytes written and, per block, the world ranks that wrote in it.
type countingFS struct {
	fsys.System
	path    string
	written int64
	writers map[int64]map[int]bool
}

func (c *countingFS) Create(p *sim.Proc, rank int, path string) (h fsys.Handle, err error) {
	p.AwaitNow(c.StartCreate(p, rank, path, &h, &err))
	return h, err
}

func (c *countingFS) StartCreate(p *sim.Proc, rank int, path string, h *fsys.Handle, err *error) sim.Cont {
	return &countingCreate{c: c, path: path, h: h, err: err, call: c.System.StartCreate(p, rank, path, h, err)}
}

// countingCreate is a create in flight whose handle, for the counted
// path, counts once the create finished.
type countingCreate struct {
	c    *countingFS
	path string
	h    *fsys.Handle
	err  *error
	call sim.Cont
}

func (k *countingCreate) Continue() bool {
	if !k.call.Continue() {
		return false
	}
	if *k.err == nil && k.path == k.c.path {
		*k.h = countingHandle{*k.h, k.c}
	}
	return true
}

type countingHandle struct {
	fsys.Handle
	c *countingFS
}

func (h countingHandle) WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) (err error) {
	p.AwaitNow(h.StartWriteAt(p, rank, off, buf, &err))
	return err
}

func (h countingHandle) StartWriteAt(p *sim.Proc, rank int, off int64, buf data.Buf, err *error) sim.Cont {
	h.c.written += buf.Len()
	bs := h.c.BlockSize()
	for b := off / bs; buf.Len() > 0 && b <= (off+buf.Len()-1)/bs; b++ {
		if h.c.writers[b] == nil {
			h.c.writers[b] = map[int]bool{}
		}
		h.c.writers[b][rank] = true
	}
	return h.Handle.StartWriteAt(p, rank, off, buf, err)
}

// FuzzCollectiveWrite holds the two-phase collective write to the
// semantics Thakur, Gropp and Lusk set for it (arXiv cs/0310029): it must
// be indistinguishable from independent access. On a generated layout —
// a communicator of 1 to 64 ranks, spread over one or more psets, any
// aggregator ratio, aligned domains or not, a block size and one disjoint
// extent per rank with gaps and empty ranks — a split collective write
// must leave the same file bytes as each rank's independent WriteAt,
// ReadAtAll must hand every rank its extent back, the aggregators must
// pass the file system exactly the extents' bytes, and with AlignDomains
// no block may lie in two aggregators' file domains or take writes from
// two ranks, so the collective's data writes revoke no token. The write
// must also match the blocking reference (refWriteAtAll) event for event,
// on GPFS on the serial kernel and on PVFS on the partitioned one.
func FuzzCollectiveWrite(f *testing.F) {
	f.Add([]byte{})                                   // one rank, nothing to write
	f.Add([]byte{63, 0, 32, 1, 7, 0, 0, 64, 0})       // 64 ranks abutting, default hints
	f.Add([]byte{15, 2, 1, 0, 3, 9, 40, 200, 17, 1})  // gaps, 1:1 aggregators, unaligned
	f.Add([]byte{40, 3, 8, 1, 15, 255, 5, 63, 250, 3, // 41 ranks over two psets
		7, 0, 0, 8, 1, 64, 7, 12, 128, 33, 99, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, in []byte) {
		l := decodeLayout(in)
		checkAgainstReference(t, l, "gpfs", 0)
		checkAgainstReference(t, l, "pvfs", 2)
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(1), machine.Intrepid(l.world))
		cfg := storage.DefaultGPFS()
		cfg.NoiseProb = 0
		cfg.BlockSize = l.block
		gpfs, err := storage.NewGPFS(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs := &countingFS{System: gpfs, path: "coll", writers: map[int64]map[int]bool{}}
		lo, hi := int64(1<<62), int64(0)
		var total int64
		for i := range l.lens {
			if l.lens[i] > 0 {
				lo, hi, total = min(lo, l.offs[i]), max(hi, l.offs[i]+l.lens[i]), total+l.lens[i]
			}
		}
		var coll, ind data.Buf
		var domains []domain
		var aggs []int
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
			buf := l.payload(i)

			cf, err := Open(c, r, fs, "coll", true, l.hints)
			if err != nil {
				t.Error(err)
				return
			}
			if err := cf.WriteAtAll(r, l.offs[i], buf); err != nil {
				t.Errorf("rank %d: %v", i, err)
			}
			got, err := cf.ReadAtAll(r, l.offs[i], l.lens[i])
			if err != nil {
				t.Errorf("rank %d read: %v", i, err)
			} else if got.Len() != buf.Len() || (buf.Len() > 0 && !bytes.Equal(got.Bytes(), buf.Bytes())) {
				t.Errorf("rank %d: ReadAtAll returned %d bytes that differ from its %d-byte extent at %d", i, got.Len(), buf.Len(), l.offs[i])
			}
			if i == 0 {
				aggs = cf.Aggregators()
				if hi > lo {
					domains = cf.fileDomains(lo, hi)
				}
			}
			cf.Close(r)

			inf, err := Open(c, r, fs, "ind", true, l.hints)
			if err != nil {
				t.Error(err)
				return
			}
			if err := inf.h.WriteAt(r.Proc(), r.ID(), l.offs[i], buf); err != nil {
				t.Errorf("rank %d independent: %v", i, err)
			}
			inf.Close(r)

			if i == 0 {
				coll, ind = readAll(t, r, fs, "coll"), readAll(t, r, fs, "ind")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !coll.Real() && coll.Len() > 0 || !ind.Real() && ind.Len() > 0 {
			t.Fatalf("content-mode files read back synthetic")
		}
		if !bytes.Equal(coll.Bytes(), ind.Bytes()) || coll.Len() != ind.Len() {
			t.Fatalf("collective file (%d bytes) differs from independent writes (%d bytes)", coll.Len(), ind.Len())
		}
		if fs.written != total {
			t.Fatalf("aggregators wrote %d bytes, extents hold %d", fs.written, total)
		}
		if !l.hints.AlignDomains {
			return
		}
		// Clipped to the data, consecutive non-empty domains share no block.
		last := int64(-1)
		for di, d := range domains {
			a, b := max(d.lo, lo), min(d.hi, hi)
			if a >= b {
				continue
			}
			if a/l.block <= last {
				t.Fatalf("aligned domain %d [%d,%d) of %d aggregators shares block %d with the one before (block size %d)",
					di, d.lo, d.hi, len(aggs), a/l.block, l.block)
			}
			last = (b - 1) / l.block
		}
		for b, ws := range fs.writers {
			if len(ws) > 1 {
				t.Fatalf("block %d took writes from %d ranks under aligned domains", b, len(ws))
			}
		}
	})
}

// readAll reads the whole file at path independently.
func readAll(t *testing.T, r *mpi.Rank, fs fsys.System, path string) data.Buf {
	h, err := fs.Open(r.Proc(), r.ID(), path)
	if err != nil {
		t.Error(err)
		return data.Buf{}
	}
	defer h.Close(r.Proc(), r.ID())
	buf, err := h.ReadAt(r.Proc(), r.ID(), 0, h.Size())
	if err != nil {
		t.Error(err)
	}
	return buf
}
