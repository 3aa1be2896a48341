package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// env wires a small machine, file system and MPI world together.
func env(t *testing.T, ranks int) (*mpi.World, *storage.Core) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(m, mpi.DefaultConfig()), fs
}

func TestCollectiveOpenSingleCreate(t *testing.T) {
	w, fs := env(t, 256)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := Open(c, r, fs, "shared.dat", true, DefaultHints())
		if err != nil {
			t.Errorf("rank %d open: %v", r.ID(), err)
			return
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.Creates != 1 {
		t.Fatalf("collective open issued %d creates, want 1", fs.Stats.Creates)
	}
	if fs.Stats.Closes != 1 {
		t.Fatalf("collective close issued %d closes, want 1", fs.Stats.Closes)
	}
}

func TestOpenMissingPropagatesError(t *testing.T) {
	w, fs := env(t, 64)
	fails := 0
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		if _, err := Open(c, r, fs, "missing", false, DefaultHints()); err != nil {
			fails++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fails != 64 {
		t.Fatalf("%d ranks saw the open error, want all 64", fails)
	}
}

func TestWriteAtAllContiguousRoundTrip(t *testing.T) {
	// Every rank writes a distinct 1 KiB chunk at rank*1KiB; the file must
	// read back as the concatenation.
	const chunk = 1024
	w, fs := env(t, 256)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := Open(c, r, fs, "all.dat", true, DefaultHints())
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte{byte(r.ID())}, chunk)
		if err := f.WriteAtAll(r, int64(r.ID())*chunk, data.FromBytes(payload)); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		f.Close(r)

		if r.ID() == 0 {
			h, err := fs.Open(r.Proc(), 0, "all.dat")
			if err != nil {
				t.Error(err)
				return
			}
			got, err := h.ReadAt(r.Proc(), 0, 0, 256*chunk)
			if err != nil {
				t.Error(err)
				return
			}
			b := got.Bytes()
			for rank := 0; rank < 256; rank++ {
				for i := 0; i < chunk; i += 129 {
					if b[rank*chunk+i] != byte(rank) {
						t.Errorf("byte at rank %d offset %d = %d", rank, i, b[rank*chunk+i])
						return
					}
				}
			}
			h.Close(r.Proc(), 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtAllUsesFewClients(t *testing.T) {
	// Two-phase: only the aggregators (1 per 32 ranks) touch the file
	// system, so token grants come from at most that many clients.
	w, fs := env(t, 1024)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "f", true, DefaultHints())
		f.WriteAtAll(r, int64(r.ID())*4096, data.Synthetic(4096))
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1024 ranks span 4 psets; 8 aggregators per pset = 32.
}

func TestAggregatorSpread(t *testing.T) {
	// World comm over 1024 ranks = 4 psets: 8 aggregators per pset.
	w, fs := env(t, 1024)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "spread", true, DefaultHints())
		if r.ID() == 0 {
			aggs := f.Aggregators()
			if len(aggs) != 32 {
				t.Errorf("got %d aggregators, want 32", len(aggs))
			}
			for i := 1; i < len(aggs); i++ {
				if aggs[i]-aggs[i-1] != 32 {
					t.Errorf("aggregators not evenly spread: %v", aggs[:i+1])
					break
				}
			}
			// Each pset carries exactly 8.
			perPset := map[int]int{}
			for _, a := range aggs {
				perPset[fs.Machine().PsetOfRank(c.WorldRank(a))]++
			}
			for ps, n := range perPset {
				if n != 8 {
					t.Errorf("pset %d has %d aggregators, want 8", ps, n)
				}
			}
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorsPerPsetForSparseComm(t *testing.T) {
	// A communicator with one rank per pset (rbIO writers) must make every
	// member an aggregator: the per-pset quota dominates the global ratio.
	w, fs := env(t, 2048) // 8 psets
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		color := int64(1)
		if r.ID()%256 == 0 { // first rank of each pset
			color = 0
		}
		sub := c.Split(r, color, int64(r.ID()))
		if color != 0 {
			return
		}
		f, _ := Open(sub, r, fs, "sparse", true, DefaultHints())
		if sub.Rank(r) == 0 {
			if got := len(f.Aggregators()); got != 8 {
				t.Errorf("sparse comm aggregators %d, want 8 (all writers)", got)
			}
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileDomainsAligned(t *testing.T) {
	w, fs := env(t, 256)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		if r.ID() != 0 {
			// Only rank 0 inspects; everyone participates in open.
		}
		h := DefaultHints()
		h.AggRatio = 64
		f, _ := Open(c, r, fs, "f", true, h)
		if r.ID() == 0 {
			bs := fs.BlockSize()
			doms := f.fileDomains(0, 64*bs+12345)
			if len(doms) != 4 {
				t.Errorf("domain count %d, want 4", len(doms))
			}
			for i, d := range doms {
				if i > 0 && d.lo%bs != 0 {
					t.Errorf("domain %d start %d not block aligned", i, d.lo)
				}
				if i > 0 && doms[i-1].hi != d.lo {
					t.Errorf("domains %d/%d not abutting", i-1, i)
				}
			}
			if doms[0].lo != 0 || doms[3].hi != 64*bs+12345 {
				t.Errorf("domains do not cover extent: %v", doms)
			}
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlignmentReducesTokenRevocations(t *testing.T) {
	// With aligned domains, aggregators never share a block; unaligned
	// domains create false sharing and revocations.
	run := func(align bool) int {
		w, fs := env(t, 1024)
		err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
			h := DefaultHints()
			h.AlignDomains = align
			f, _ := Open(c, r, fs, "f", true, h)
			// 1 MiB per rank: domains are 32 MiB, not naturally aligned to
			// the 4 MiB blocks unless alignment is on... (1024 ranks/32
			// aggs = 32 MiB domains — aligned by chance; use odd sizes.)
			f.WriteAtAll(r, int64(r.ID())*1000_000, data.Synthetic(1000_000))
			f.Close(r)
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs.Stats.TokenRevokes
	}
	aligned, unaligned := run(true), run(false)
	if aligned != 0 {
		t.Fatalf("aligned collective write caused %d revocations", aligned)
	}
	if unaligned == 0 {
		t.Fatal("unaligned collective write caused no revocations; false-sharing model inert")
	}
}

func TestIndependentWriteAt(t *testing.T) {
	w, fs := env(t, 256)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "ind", true, DefaultHints())
		if r.ID() == 3 {
			if err := f.h.WriteAt(r.Proc(), r.ID(), 100, data.FromBytes([]byte("abc"))); err != nil {
				t.Error(err)
			}
			got, err := f.Handle().ReadAt(r.Proc(), r.ID(), 100, 3)
			if err != nil || string(got.Bytes()) != "abc" {
				t.Errorf("read back %q, %v", got.Bytes(), err)
			}
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// callBody is a rank body (sim.Kernel.Start) that opens a file, writes
// its 1 MiB extent collectively and closes the file, awaiting each Call
// with Then, and notes when its write returned.
type callBody struct {
	c     *mpi.Comm
	r     *mpi.Rank
	fs    fsys.System
	at    int
	k     Call
	f     *File
	times []float64
	t     *testing.T
}

func (b *callBody) Continue() bool {
	p := b.r.Proc()
	for {
		b.at++
		switch b.at {
		case 1:
			if !p.Then(b.k.StartOpen(b.c, b.r, b.fs, "f", true, DefaultHints())) {
				return false
			}
		case 2:
			if b.f = b.k.File(); b.f == nil {
				b.t.Error(b.k.Err())
				return true
			}
			if !p.Then(b.k.StartWriteAtAll(b.f, b.r, int64(b.r.ID())<<20, data.Synthetic(1<<20))) {
				return false
			}
		case 3:
			if err := b.k.Err(); err != nil {
				b.t.Error(err)
			}
			b.times[b.r.ID()] = b.r.Now()
			if !p.Then(b.k.StartClose(b.f, b.r)) {
				return false
			}
		default:
			if err := b.k.Err(); err != nil {
				b.t.Error(err)
			}
			return true
		}
	}
}

// TestCallFromBodyMatchesBlocking drives Open, WriteAtAll and Close as
// Calls a rank body awaits, with no phase of the rank's own, and requires
// the blocking calls' return times and events. Only comm rank 0's create
// and close and the aggregators' commits borrow a coroutine, so the body
// run's wakes are those phases' alone: far fewer than the blocking run's,
// which wakes every rank after each wait.
func TestCallFromBodyMatchesBlocking(t *testing.T) {
	const n = 256
	w, fs := env(t, n)
	blocking := make([]float64, n)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := Open(c, r, fs, "f", true, DefaultHints())
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteAtAll(r, int64(r.ID())<<20, data.Synthetic(1<<20)); err != nil {
			t.Error(err)
		}
		blocking[r.ID()] = r.Now()
		if err := f.Close(r); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wb, fsb := env(t, n)
	body := make([]float64, n)
	wb.Start(func(c *mpi.Comm, r *mpi.Rank) sim.Cont {
		return &callBody{c: c, r: r, fs: fsb, times: body, t: t}
	})
	if err := wb.K.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		if body[i] != blocking[i] {
			t.Fatalf("rank %d's write returned at %v from a body, %v blocking", i, body[i], blocking[i])
		}
	}
	if got, want := wb.K.Events(), w.K.Events(); got != want {
		t.Fatalf("%d events from bodies, %d blocking", got, want)
	}
	t.Logf("wakes: %d from bodies, %d blocking", wb.K.Woken(), w.K.Woken())
	if got, limit := wb.K.Woken(), w.K.Woken()/8; got > limit {
		t.Fatalf("%d wakes from bodies, want at most %d", got, limit)
	}
}

func TestCollectiveWriteEmptyContribution(t *testing.T) {
	// Ranks with nothing to write still participate.
	w, fs := env(t, 64)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "some", true, DefaultHints())
		var buf data.Buf
		off := int64(0)
		if r.ID()%2 == 0 {
			off = int64(r.ID()) * 512
			buf = data.FromBytes(bytes.Repeat([]byte{7}, 512))
		}
		if err := f.WriteAtAll(r, off, buf); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	sz, err := fs.FileSize("some")
	if err != nil {
		t.Fatal(err)
	}
	if sz != 62*512+512 {
		t.Fatalf("file size %d, want %d", sz, 62*512+512)
	}
}

func TestCoalesce(t *testing.T) {
	ps := []piece{
		{off: 100, buf: data.FromBytes([]byte("cd"))},
		{off: 98, buf: data.FromBytes([]byte("ab"))},
		{off: 200, buf: data.FromBytes([]byte("xy"))},
	}
	out := coalesce(ps)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d runs, want 2", len(out))
	}
	if out[0].off != 98 || string(out[0].buf.Bytes()) != "abcd" {
		t.Fatalf("first run %+v", out[0])
	}
	if out[1].off != 200 {
		t.Fatalf("second run %+v", out[1])
	}
}

func TestReadAtAllRoundTrip(t *testing.T) {
	// Write collectively, read collectively: every rank gets its chunk back.
	const chunk = 2048
	w, fs := env(t, 256)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := Open(c, r, fs, "car", true, DefaultHints())
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte{byte(r.ID() + 1)}, chunk)
		if err := f.WriteAtAll(r, int64(r.ID())*chunk, data.FromBytes(payload)); err != nil {
			t.Error(err)
			return
		}
		got, err := f.ReadAtAll(r, int64(r.ID())*chunk, chunk)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if !got.Real() || !bytes.Equal(got.Bytes(), payload) {
			t.Errorf("rank %d: collective read corrupted", r.ID())
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadAtAllShiftedRanges(t *testing.T) {
	// Ranks read a window overlapping their neighbor's data, crossing
	// domain boundaries.
	const chunk = 4096
	w, fs := env(t, 64)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "shift", true, DefaultHints())
		payload := bytes.Repeat([]byte{byte(r.ID())}, chunk)
		f.WriteAtAll(r, int64(r.ID())*chunk, data.FromBytes(payload))

		// Read half of own chunk plus half of the next rank's.
		off := int64(r.ID())*chunk + chunk/2
		n := int64(chunk)
		if r.ID() == 63 {
			n = chunk / 2 // last rank has no right neighbor
		}
		got, err := f.ReadAtAll(r, off, n)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		b := got.Bytes()
		for i := 0; i < chunk/2; i++ {
			if b[i] != byte(r.ID()) {
				t.Errorf("rank %d: own half corrupted at %d", r.ID(), i)
				return
			}
		}
		if n == chunk {
			for i := chunk / 2; i < chunk; i++ {
				if b[i] != byte(r.ID()+1) {
					t.Errorf("rank %d: neighbor half corrupted at %d", r.ID(), i)
					return
				}
			}
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadAtAllZeroLengthParticipants(t *testing.T) {
	w, fs := env(t, 64)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "z", true, DefaultHints())
		f.WriteAtAll(r, int64(r.ID())*100, data.FromBytes(bytes.Repeat([]byte{1}, 100)))
		// Odd ranks request nothing but still participate.
		var off, n int64
		if r.ID()%2 == 0 {
			off, n = int64(r.ID())*100, 100
		}
		got, err := f.ReadAtAll(r, off, n)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if got.Len() != n {
			t.Errorf("rank %d got %d bytes, want %d", r.ID(), got.Len(), n)
		}
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadAtAllReadsEachDomainOnce(t *testing.T) {
	// The aggregator reads its domain span once regardless of how many
	// ranks request pieces of it.
	w, fs := env(t, 256)
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, _ := Open(c, r, fs, "once", true, DefaultHints())
		f.WriteAtAll(r, int64(r.ID())*1024, data.Synthetic(1024))
		f.ReadAtAll(r, int64(r.ID())*1024, 1024)
		f.Close(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 aggregators (256 ranks / 32) -> at most 8 span reads.
	if reads := fs.Stats.BytesRead; reads > 256*1024+8*4096 {
		t.Fatalf("collective read moved %d bytes from storage, want ~one pass", reads)
	}
}
