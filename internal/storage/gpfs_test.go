package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// gpfsRig builds a small machine + file system and runs body as a single process.
func gpfsRig(t *testing.T, ranks int, mod func(*storage.GPFSConfig), body func(p *sim.Proc, fs *storage.Core)) {
	t.Helper()
	gpfsRigTraced(t, nil, ranks, mod, body)
}

// gpfsRigTraced is gpfsRig with rec attached before the mount; nil traces nothing.
func gpfsRigTraced(t *testing.T, rec *trace.Recorder, ranks int, mod func(*storage.GPFSConfig), body func(p *sim.Proc, fs *storage.Core)) {
	t.Helper()
	k := sim.NewKernel()
	k.SetRecorder(rec)
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0 // tests want exact timing unless they opt in
	if mod != nil {
		mod(&cfg)
	}
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.Go("test", func(p *sim.Proc) { body(p, fs) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenClose(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, err := fs.Create(p, 0, "out/ckpt.0")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(p, 0); err != nil {
			t.Fatal(err)
		}
		h2, err := fs.Open(p, 0, "out/ckpt.0")
		if err != nil {
			t.Fatal(err)
		}
		if err := h2.Close(p, 0); err != nil {
			t.Fatal(err)
		}
		if fs.Stats.Creates != 1 || fs.Stats.Opens != 1 || fs.Stats.Closes != 2 {
			t.Fatalf("stats %+v", fs.Stats)
		}
	})
}

func TestCreateExistingFails(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		if _, err := fs.Create(p, 0, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(p, 0, "a"); !errors.Is(err, fsys.ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
	})
}

func TestOpenMissingFails(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		if _, err := fs.Open(p, 0, "nope"); !errors.Is(err, fsys.ErrNotExist) {
			t.Fatalf("want ErrNotExist, got %v", err)
		}
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, err := fs.Create(p, 0, "f")
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 10000)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := h.WriteAt(p, 0, 0, data.FromBytes(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAt(p, 0, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Real() || !bytes.Equal(got.Bytes(), payload) {
			t.Fatal("read back different bytes")
		}
	})
}

func TestWriteAcrossBlockBoundary(t *testing.T) {
	gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.BlockSize = 1024 }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		payload := make([]byte, 4096+512)
		for i := range payload {
			payload[i] = byte(i)
		}
		off := int64(700) // straddles several 1 KiB blocks, misaligned
		if err := h.WriteAt(p, 0, off, data.FromBytes(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAt(p, 0, off, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatal("cross-block write corrupted data")
		}
		if h.Size() != off+int64(len(payload)) {
			t.Fatalf("size %d, want %d", h.Size(), off+int64(len(payload)))
		}
	})
}

func TestSparseAndOverwrite(t *testing.T) {
	gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.BlockSize = 1024 }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		a := bytes.Repeat([]byte{1}, 2000)
		b := bytes.Repeat([]byte{2}, 500)
		if err := h.WriteAt(p, 0, 0, data.FromBytes(a)); err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(p, 0, 1000, data.FromBytes(b)); err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAt(p, 0, 0, 2000)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append(bytes.Repeat([]byte{1}, 1000), b...), bytes.Repeat([]byte{1}, 500)...)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("overwrite produced wrong contents")
		}
	})
}

func TestSyntheticWrites(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		if err := h.WriteAt(p, 0, 0, data.Synthetic(50<<20)); err != nil {
			t.Fatal(err)
		}
		if h.Size() != 50<<20 {
			t.Fatalf("size %d, want 50 MiB", h.Size())
		}
		got, err := h.ReadAt(p, 0, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if got.Real() {
			t.Fatal("reading synthetic region returned real bytes")
		}
		if got.Len() != 1<<20 {
			t.Fatalf("read length %d", got.Len())
		}
	})
}

// TestReadPastEOF pins that every read outside the file fails with an
// error — including the ones a corrupt checkpoint header computes: a
// negative length or offset, or a range whose end overflows int64.
func TestReadPastEOF(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(100))
		for _, r := range []struct{ off, n int64 }{
			{50, 100},
			{0, -1},
			{-1, 10},
			{0, math.MinInt64 + 5},
			{math.MaxInt64, 10},
		} {
			if _, err := h.ReadAt(p, 0, r.off, r.n); err == nil {
				t.Errorf("read of %d bytes at %d succeeded", r.n, r.off)
			}
		}
	})
}

func TestClosedHandleRejectsIO(t *testing.T) {
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		h.Close(p, 0)
		if err := h.WriteAt(p, 0, 0, data.Synthetic(10)); !errors.Is(err, fsys.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if _, err := h.ReadAt(p, 0, 0, 1); !errors.Is(err, fsys.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if err := h.Close(p, 0); !errors.Is(err, fsys.ErrClosed) {
			t.Fatalf("double close: want ErrClosed, got %v", err)
		}
	})
}

func TestMetadataCostGrowsWithDirectoryPopulation(t *testing.T) {
	// The 1PFPP mechanism: the k-th create in a directory costs more than
	// the first. Measure the time of create #1 vs create #2000.
	gpfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		t0 := p.Now()
		fs.Create(p, 0, "dir/f0")
		firstCost := p.Now() - t0
		for i := 1; i < 2000; i++ {
			fs.Create(p, 0, fmt.Sprintf("dir/f%d", i))
		}
		t1 := p.Now()
		fs.Create(p, 0, "dir/last")
		lastCost := p.Now() - t1
		if lastCost < 1.5*firstCost {
			t.Fatalf("create cost did not grow with directory size: first %v, 2000th %v", firstCost, lastCost)
		}
	})
}

func TestTokenRevocationBetweenClients(t *testing.T) {
	// Two ranks in different psets writing the same block must trigger a
	// revocation; same-pset ranks share the ION's token and must not.
	gpfsRig(t, 1024, func(c *storage.GPFSConfig) { c.BlockSize = 1024 }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "shared")
		h.WriteAt(p, 0, 0, data.Synthetic(512))
		if fs.Stats.TokenRevokes != 0 {
			t.Fatalf("first write revoked: %+v", fs.Stats)
		}
		h.WriteAt(p, 1, 256, data.Synthetic(256)) // rank 1: same pset as rank 0
		if fs.Stats.TokenRevokes != 0 {
			t.Fatalf("same-pset write revoked a token: %+v", fs.Stats)
		}
		h.WriteAt(p, 512, 512, data.Synthetic(256)) // rank 512: pset 2
		if fs.Stats.TokenRevokes != 1 {
			t.Fatalf("cross-pset overlapping write did not revoke: %+v", fs.Stats)
		}
	})
}

func TestDisjointBlocksNoRevocation(t *testing.T) {
	gpfsRig(t, 1024, func(c *storage.GPFSConfig) { c.BlockSize = 1024 }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "shared")
		h.WriteAt(p, 0, 0, data.Synthetic(1024))      // block 0, pset 0
		h.WriteAt(p, 512, 1024, data.Synthetic(1024)) // block 1, pset 2
		if fs.Stats.TokenRevokes != 0 {
			t.Fatalf("block-aligned disjoint writes revoked tokens: %+v", fs.Stats)
		}
	})
}

func TestWriteBehindOverlapsCommit(t *testing.T) {
	// With write-behind the WriteAt call returns before the disk commit; the
	// close then waits. Without it, WriteAt itself takes the full time.
	var wbWrite, wbTotal, syncWrite float64
	gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.WriteBehind = true }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(64<<20))
		wbWrite = p.Now() - t0
		h.Close(p, 0)
		wbTotal = p.Now() - t0
	})
	gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.WriteBehind = false }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(64<<20))
		syncWrite = p.Now() - t0
		h.Close(p, 0)
	})
	if wbWrite >= syncWrite {
		t.Fatalf("write-behind write (%v) not faster than synchronous (%v)", wbWrite, syncWrite)
	}
	if wbTotal <= wbWrite {
		t.Fatalf("write-behind close did not wait for commits: total %v vs write %v", wbTotal, wbWrite)
	}
	// Cache-off is strictly slower end to end: every block stalls on its
	// round trip instead of pipelining behind the stream.
	if syncWrite < wbTotal {
		t.Fatalf("synchronous path (%v) ended before write-behind total (%v)", syncWrite, wbTotal)
	}
}

func TestStripingSpreadsServers(t *testing.T) {
	rec := trace.NewRecorder()
	gpfsRigTraced(t, rec, 256, func(c *storage.GPFSConfig) { c.BlockSize = 1 << 20; c.NumServers = 8 }, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "big")
		h.WriteAt(p, 0, 0, data.Synthetic(8<<20)) // exactly one block per server
	})
	busy := map[int32]bool{}
	for _, ev := range rec.Events() {
		if ev.Name == "server.write" {
			busy[ev.Track] = true
		}
	}
	if len(busy) != 8 {
		t.Fatalf("striping touched %d/8 servers", len(busy))
	}
}

func TestClientStreamCapsThroughput(t *testing.T) {
	// One client writing one file is bound by ClientStreamBW even when the
	// servers could go faster.
	gpfsRig(t, 256, func(c *storage.GPFSConfig) {
		c.ClientStreamBW = 10e6
		c.WriteBehind = false
	}, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(100e6))
		elapsed := p.Now() - t0
		if elapsed < 9.9 {
			t.Fatalf("100 MB at 10 MB/s stream cap took only %v s", elapsed)
		}
	})
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) (float64, int) {
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(seed), machine.Intrepid(256))
		cfg := storage.DefaultGPFS()
		cfg.NoiseProb = 0.2 // high so the test reliably sees spikes
		fs, err := storage.NewGPFS(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var end float64
		k.Go("w", func(p *sim.Proc) {
			h, _ := fs.Create(p, 0, "f")
			for i := 0; i < 50; i++ {
				h.WriteAt(p, 0, int64(i)*8<<20, data.Synthetic(8<<20))
			}
			h.Close(p, 0)
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end, fs.Stats.NoiseSpikes
	}
	e1, s1 := run(7)
	e2, s2 := run(7)
	e3, s3 := run(8)
	if e1 != e2 || s1 != s2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", e1, s1, e2, s2)
	}
	if s1 == 0 {
		t.Fatal("noise model produced no spikes at 20% probability")
	}
	if e1 == e3 && s1 == s3 {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any sequence of writes at arbitrary offsets reads back what
	// a plain in-memory buffer would hold.
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		ok := true
		gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.BlockSize = 512 }, func(p *sim.Proc, fs *storage.Core) {
			h, _ := fs.Create(p, 0, "f")
			shadow := make([]byte, 1<<17)
			maxEnd := int64(0)
			for _, o := range ops {
				if len(o.Data) == 0 {
					continue
				}
				off := int64(o.Off)
				h.WriteAt(p, 0, off, data.FromBytes(o.Data))
				copy(shadow[off:], o.Data)
				if e := off + int64(len(o.Data)); e > maxEnd {
					maxEnd = e
				}
			}
			if maxEnd == 0 {
				return
			}
			got, err := h.ReadAt(p, 0, 0, maxEnd)
			if err != nil || !got.Real() || !bytes.Equal(got.Bytes(), shadow[:maxEnd]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncWaitsOwnCommitsOnly(t *testing.T) {
	// Two clients (different psets) share a handle: one's Sync must not
	// wait for the other's in-flight commits. (Assertions use t.Error, not
	// t.Fatal: Fatal's Goexit would strand the simulation kernel.)
	var syncWait float64
	var inFlight int
	gpfsRig(t, 1024, nil, func(p *sim.Proc, fs *storage.Core) {
		hi, _ := fs.Create(p, 0, "shared")
		h := hi.(*storage.Handle)
		// Rank 512 (pset 2) issues a long write-behind commit.
		h.WriteAt(p, 512, 0, data.Synthetic(200<<20))
		// Rank 0 (pset 0) writes a tiny chunk elsewhere; its Sync should be
		// quick even though pset 2's commits run for seconds.
		h.WriteAt(p, 0, 1<<30, data.Synthetic(1<<20))
		t0 := p.Now()
		p.AwaitNow(h.StartSync(p, 0))
		syncWait = p.Now() - t0
		h.Close(p, 0) // close waits for everyone
		inFlight = h.TotalOutstanding()
	})
	if syncWait > 1.0 {
		t.Fatalf("Sync waited %v s for another client's commits", syncWait)
	}
	if inFlight != 0 {
		t.Fatalf("%d commits still in flight after close", inFlight)
	}
}

func TestPartialBlockRMWCost(t *testing.T) {
	// Overwriting the interior of an existing block costs a full-block
	// read-modify-write at the server; an aligned full-block write does not.
	elapsed := func(off, size int64) float64 {
		var d float64
		gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.WriteBehind = false; c.ClientStreamBW = 1e12 }, func(p *sim.Proc, fs *storage.Core) {
			h, _ := fs.Create(p, 0, "f")
			h.WriteAt(p, 0, 0, data.Synthetic(32<<20)) // pre-existing data
			t0 := p.Now()
			h.WriteAt(p, 0, off, data.Synthetic(size))
			d = p.Now() - t0
		})
		return d
	}
	aligned := elapsed(4<<20, 4<<20) // exactly block 1
	partial := elapsed(5<<20, 1<<20) // interior of block 1
	if partial < aligned*0.5 {
		t.Fatalf("partial write (%v) suspiciously cheaper than full block (%v)", partial, aligned)
	}
}

func TestCacheOffChainsBlocks(t *testing.T) {
	// Without write-behind, each block's round trip stalls the stream, so a
	// multi-block write takes strictly longer than with the cache.
	elapsed := func(wb bool) float64 {
		var d float64
		gpfsRig(t, 256, func(c *storage.GPFSConfig) { c.WriteBehind = wb }, func(p *sim.Proc, fs *storage.Core) {
			h, _ := fs.Create(p, 0, "f")
			t0 := p.Now()
			h.WriteAt(p, 0, 0, data.Synthetic(64<<20))
			h.Close(p, 0)
			d = p.Now() - t0
		})
		return d
	}
	on, off := elapsed(true), elapsed(false)
	if off <= on*1.05 {
		t.Fatalf("cache-off (%v) not slower than write-behind (%v)", off, on)
	}
}
