package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

func pvfsRig(t *testing.T, ranks int, mod func(*storage.Config), body func(p *sim.Proc, fs *storage.Core)) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultPVFS()
	cfg.NoiseProb = 0
	if mod != nil {
		mod(&cfg)
	}
	fs, err := storage.NewPVFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.Go("test", func(p *sim.Proc) { body(p, fs) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenCloseRoundTrip(t *testing.T) {
	pvfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, err := fs.Create(p, 0, "a/b")
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{7, 8, 9}, 5000)
		if err := h.WriteAt(p, 0, 100, data.FromBytes(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAt(p, 0, 100, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatal("corrupted round trip")
		}
		if err := h.Close(p, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, 0, "a/b"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, 0, "missing"); !errors.Is(err, fsys.ErrNotExist) {
			t.Fatalf("want ErrNotExist, got %v", err)
		}
		if _, err := fs.Create(p, 0, "a/b"); !errors.Is(err, fsys.ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
	})
}

func TestWritesAreSynchronous(t *testing.T) {
	// Cache off: WriteAt must block for the full commit, so a write takes
	// at least size/ClientStreamBW.
	pvfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(70e6)) // 70 MB at 35 MB/s = 2s
		elapsed := p.Now() - t0
		if elapsed < 1.99 {
			t.Fatalf("synchronous write returned after only %v s", elapsed)
		}
	})
}

func TestSyncIsNoop(t *testing.T) {
	pvfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(1<<20))
		t0 := p.Now()
		p.AwaitNow(h.StartSync(p, 0))
		if p.Now() != t0 {
			t.Fatal("Sync advanced time on a synchronous file system")
		}
	})
}

func TestDistributedMetadataBeatsGPFSOnCreateStorm(t *testing.T) {
	// The PVFS model's reason to exist: a create storm spreads across
	// distributed metadata queues instead of thrashing one MDS.
	const creates = 2000
	measure := func(pv bool) float64 {
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(1), machine.Intrepid(8192))
		var end float64
		done := 0
		body := func(p *sim.Proc, create func(*sim.Proc, int, string) error, rank int) {
			if err := create(p, rank, fmt.Sprintf("dir/f%05d", rank)); err != nil {
				t.Error(err)
			}
			done++
			if p.Now() > end {
				end = p.Now()
			}
		}
		if pv {
			cfg := storage.DefaultPVFS()
			cfg.NoiseProb = 0
			fs, err := storage.NewPVFS(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < creates; r++ {
				r := r
				k.Go(fmt.Sprintf("c%d", r), func(p *sim.Proc) {
					body(p, func(p *sim.Proc, rank int, path string) error {
						_, err := fs.Create(p, rank, path)
						return err
					}, r)
				})
			}
		} else {
			cfg := storage.DefaultGPFS()
			cfg.NoiseProb = 0
			fs, err := storage.NewGPFS(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < creates; r++ {
				r := r
				k.Go(fmt.Sprintf("c%d", r), func(p *sim.Proc) {
					body(p, func(p *sim.Proc, rank int, path string) error {
						_, err := fs.Create(p, rank, path)
						return err
					}, r)
				})
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if done != creates {
			t.Fatalf("%d creates completed", done)
		}
		return end
	}
	gpfsTime, pvfsTime := measure(false), measure(true)
	if pvfsTime*2 > gpfsTime {
		t.Fatalf("distributed metadata (%v s) not clearly faster than single MDS (%v s)", pvfsTime, gpfsTime)
	}
}

func TestSyntheticAndSparse(t *testing.T) {
	pvfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(10<<20))
		if h.Size() != 10<<20 {
			t.Fatalf("size %d", h.Size())
		}
		got, err := h.ReadAt(p, 0, 0, 1<<20)
		if err != nil || got.Real() {
			t.Fatalf("synthetic read: %v real=%v", err, got.Real())
		}
		if _, err := h.ReadAt(p, 0, 9<<20, 2<<20); err == nil {
			t.Fatal("read past EOF succeeded")
		}
	})
}

func TestClosedHandleRejected(t *testing.T) {
	pvfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "f")
		h.Close(p, 0)
		if err := h.WriteAt(p, 0, 0, data.Synthetic(1)); !errors.Is(err, fsys.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if err := h.Close(p, 0); !errors.Is(err, fsys.ErrClosed) {
			t.Fatalf("double close: want ErrClosed, got %v", err)
		}
	})
}

func TestPreloadAndIntrospection(t *testing.T) {
	pvfsRig(t, 256, nil, func(p *sim.Proc, fs *storage.Core) {
		fs.Preload("input.rea", 12345)
		if !fs.Exists("input.rea") || fs.NumFiles() != 1 {
			t.Fatal("preload missing")
		}
		sz, err := fs.FileSize("input.rea")
		if err != nil || sz != 12345 {
			t.Fatalf("size %d %v", sz, err)
		}
		h, err := fs.Open(p, 0, "input.rea")
		if err != nil {
			t.Fatal(err)
		}
		buf, err := h.ReadAt(p, 0, 0, 100)
		if err != nil || buf.Real() {
			t.Fatalf("preloaded file read: %v", err)
		}
	})
}

func TestNoLockStateExists(t *testing.T) {
	// Two clients in different psets writing the same region must not incur
	// any extra serialization beyond the data path (no tokens on PVFS).
	pvfsRig(t, 1024, nil, func(p *sim.Proc, fs *storage.Core) {
		h, _ := fs.Create(p, 0, "shared")
		h.WriteAt(p, 0, 0, data.Synthetic(1<<20))
		t0 := p.Now()
		h.WriteAt(p, 512, 0, data.Synthetic(1<<20)) // same range, other pset
		if p.Now()-t0 > 0.5 {
			t.Fatalf("conflicting write took %v s — locks on a lock-free fs?", p.Now()-t0)
		}
	})
}
